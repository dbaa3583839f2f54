package wfdb

// AppendRow is appendRow for the external tests: an instance row as a Batch
// writes it.
var AppendRow = appendRow
