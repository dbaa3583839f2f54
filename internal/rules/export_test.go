package rules

// SetScanOnly forces (true) or stops forcing (false) every Evaluate in the
// process through EvaluateScan, the reference implementation.
func SetScanOnly(v bool) { scanOnly.Store(v) }
