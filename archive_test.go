package crew_test

import (
	"testing"
	"time"

	"crew"
	"crew/internal/expr"
	"crew/internal/wfdb"
	"crew/internal/workload"
)

// TestArchivedRowSize pins what a finished instance costs the archive, which
// is most of a long run's live heap: a failure-free instance of each
// benchParams() schema, with a 6-digit input as the benchmark's, archives to
// at most 240 bytes. Row version 3 wrote 375 bytes for it, 376 once the
// instance id takes two bytes: every agent as a string and every step output
// twice, in its record and in the data table. Version 4 wrote 276: each step
// record's four scalars and each event's count and validity byte by byte.
// Version 5 writes 234.
func TestArchivedRowSize(t *testing.T) {
	p := benchParams()
	p.ME, p.RO, p.RD = 0, 0, 0
	p.PF, p.PI, p.PA = 0, 0, 0
	w, err := workload.Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	db := crew.NewMemoryDB()
	sys, err := crew.NewSystem(crew.Config{
		Library: w.Library, Programs: w.Programs, Agents: w.Agents,
		Architecture: crew.Central, DB: db, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	const limit = 240
	for _, wf := range w.Library.Names() {
		id, st, err := sys.Run(wf, map[string]expr.Value{"I1": expr.Num(654321)}, 20*time.Second)
		if err != nil || st != crew.Committed {
			t.Fatalf("%s: %v, %v", wf, st, err)
		}
		row, ok := db.Store().Get("archive", wfdb.InstanceKeyOf(wf, id))
		if !ok {
			t.Fatalf("%s.%d: no archive row", wf, id)
		}
		if len(row) > limit {
			t.Errorf("%s.%d archives to %d bytes, limit %d", wf, id, len(row), limit)
		}
	}
}
