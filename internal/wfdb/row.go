package wfdb

import (
	"encoding/binary"
	"slices"

	"crew/internal/binenc"
	"crew/internal/cerrors"
	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/model"
)

// rowVersion leads every instance, archive and summary row. A build reads
// exactly one version; anything else fails with CodeStoreFormat.
const rowVersion = 1

// Instance-row flag bits.
const (
	flagAborting = 1 << iota
	flagParent
)

// An instance row (the instance and archive tables share it) is, after the
// version byte:
//
//	workflow, id, status, flags, epoch, coordinator, notifyTo
//	[parent workflow, id, step]               when flagParent is set
//	data table:  count, then name + value     sorted by name
//	event table: event.Table.Append
//	step table:  count, then id + record      sorted by id
//	execution order: count, then step ids
//
// with the integers, strings and counts of package binenc. A step record is
// status, agent, attempts, hasResult byte, compMode, inputs, outputs, the two
// maps encoded like the data table. Maps are written in sorted key order, so
// equal instances encode to equal bytes and the WAL does not depend on Go's
// map order.

// rowEncoder carries the sort scratch one row encode needs, so that a warm
// encoder appends a row without allocating: steps orders the step table,
// keys every map nested inside it (and the data and event tables).
type rowEncoder struct {
	steps, keys []string
}

// appendInstance appends ins's row to dst.
//
//crew:hotpath
func (e *rowEncoder) appendInstance(dst []byte, ins *Instance) []byte {
	dst = append(dst, rowVersion)
	dst = binenc.AppendString(dst, ins.Workflow)
	dst = binenc.AppendInt(dst, ins.ID)
	dst = binenc.AppendInt(dst, int(ins.Status))
	var flags byte
	if ins.Aborting {
		flags |= flagAborting
	}
	if ins.Parent != nil {
		flags |= flagParent
	}
	dst = append(dst, flags)
	dst = binenc.AppendInt(dst, ins.Epoch)
	dst = binenc.AppendString(dst, ins.Coordinator)
	dst = binenc.AppendString(dst, ins.NotifyTo)
	if p := ins.Parent; p != nil {
		dst = binenc.AppendString(dst, p.Workflow)
		dst = binenc.AppendInt(dst, p.ID)
		dst = binenc.AppendString(dst, string(p.Step))
	}
	dst = expr.AppendValues(dst, ins.Data, &e.keys)
	dst = ins.Events.Append(dst, &e.keys)

	steps := e.steps[:0]
	//crew:allow hotalloc collects ids only; the sort below fixes the order
	for id := range ins.Steps {
		steps = append(steps, string(id))
	}
	slices.Sort(steps)
	e.steps = steps
	dst = binary.AppendUvarint(dst, uint64(len(steps)))
	for _, id := range steps {
		r := ins.Steps[model.StepID(id)]
		dst = binenc.AppendString(dst, id)
		dst = binenc.AppendInt(dst, int(r.Status))
		dst = binenc.AppendString(dst, r.Agent)
		dst = binenc.AppendInt(dst, r.Attempts)
		dst = binenc.AppendBool(dst, r.HasResult)
		dst = binenc.AppendInt(dst, int(r.CompMode))
		dst = expr.AppendValues(dst, r.Inputs, &e.keys)
		dst = expr.AppendValues(dst, r.Outputs, &e.keys)
	}

	return binenc.AppendStrings(dst, ins.ExecOrder)
}

// errRow classifies an undecodable row.
func errRow(err error, what string) error {
	return cerrors.E(cerrors.CodeStoreFormat, cerrors.PhaseDecode, cerrors.ErrStore, err, "wfdb: %s", what)
}

// decodeInstance parses an instance row. Arbitrary bytes yield an error,
// never a panic, and no allocation is sized by a count the input cannot hold.
func decodeInstance(b []byte) (*Instance, error) {
	if len(b) < 1 || b[0] != rowVersion {
		return nil, errRow(nil, "instance row: unknown version")
	}
	// Reads below run in source order, which is the row's field order.
	r := binenc.NewReader(b[1:])
	ins := &Instance{
		Workflow: r.Str(),
		ID:       r.Int(),
		Status:   Status(r.Int()),
	}
	flags := r.Byte()
	ins.Aborting = flags&flagAborting != 0
	ins.Epoch = r.Int()
	ins.Coordinator = r.Str()
	ins.NotifyTo = r.Str()
	if flags&flagParent != 0 {
		ins.Parent = &ParentRef{Workflow: r.Str(), ID: r.Int(), Step: model.StepID(r.Str())}
	}
	if ins.Data = expr.DecodeValues(r); ins.Data == nil {
		ins.Data = make(map[string]expr.Value)
	}
	ins.Events = event.DecodeTable(r)

	n := r.Count(8) // id length, five scalars, two counts
	ins.Steps = make(map[model.StepID]*StepRecord, n)
	for ; n > 0; n-- {
		id := model.StepID(r.Str())
		ins.Steps[id] = &StepRecord{
			Status:    StepStatus(r.Int()),
			Agent:     r.Str(),
			Attempts:  r.Int(),
			HasResult: r.Bool(),
			CompMode:  model.ExecMode(r.Int()),
			Inputs:    expr.DecodeValues(r),
			Outputs:   expr.DecodeValues(r),
		}
	}

	ins.ExecOrder = binenc.Strings[model.StepID](r)
	if err := r.Done(); err != nil {
		return nil, errRow(err, "instance row")
	}
	return ins, nil
}

// A summary row is the version byte and the status.

func appendSummary(dst []byte, st Status) []byte {
	return binenc.AppendInt(append(dst, rowVersion), int(st))
}

func decodeSummary(b []byte) (Status, error) {
	if len(b) < 1 || b[0] != rowVersion {
		return 0, errRow(nil, "summary row: unknown version")
	}
	r := binenc.NewReader(b[1:])
	st := Status(r.Int())
	if err := r.Done(); err != nil {
		return 0, errRow(err, "summary row")
	}
	return st, nil
}
