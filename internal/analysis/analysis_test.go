package analysis

import (
	"math"
	"testing"
	"testing/quick"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func val(entries []Entry, row string) float64 { return entryValue(entries, row) }

// TestTable4NormalizedValues checks the exact normalized numbers printed in
// the paper's Table 4 under the default (average) parameters.
func TestTable4NormalizedValues(t *testing.T) {
	p := Default()
	loads := LoadPerInstance(Central, p)
	if !near(val(loads, RowNormal), 15) {
		t.Errorf("central normal load = %g, want 15·l", val(loads, RowNormal))
	}
	if !near(val(loads, RowInputChange), 0.125) {
		t.Errorf("central input-change load = %g, want 0.125·l", val(loads, RowInputChange))
	}
	if !near(val(loads, RowAbort), 0.05) {
		t.Errorf("central abort load = %g, want 0.05·l", val(loads, RowAbort))
	}
	if !near(val(loads, RowFailure), 0.5) {
		t.Errorf("central failure load = %g, want 0.5·l", val(loads, RowFailure))
	}
	if !near(val(loads, RowCoord), 75) {
		t.Errorf("central coordination load = %g, want 75·l", val(loads, RowCoord))
	}
	msgs := MessagesPerInstance(Central, p)
	if !near(val(msgs, RowNormal), 60) {
		t.Errorf("central normal messages = %g, want 60", val(msgs, RowNormal))
	}
	if !near(val(msgs, RowInputChange), 0.125) {
		t.Errorf("central input-change messages = %g, want 0.125", val(msgs, RowInputChange))
	}
	if !near(val(msgs, RowAbort), 0.2) {
		t.Errorf("central abort messages = %g, want 0.2", val(msgs, RowAbort))
	}
	if !near(val(msgs, RowFailure), 0.5) {
		t.Errorf("central failure messages = %g, want 0.5", val(msgs, RowFailure))
	}
	if !near(val(msgs, RowCoord), 0) {
		t.Errorf("central coordination messages = %g, want 0", val(msgs, RowCoord))
	}
}

// TestTable5NormalizedValues checks the paper's Table 5 numbers.
func TestTable5NormalizedValues(t *testing.T) {
	p := Default()
	loads := LoadPerInstance(Parallel, p)
	if !near(val(loads, RowNormal), 3.75) {
		t.Errorf("parallel normal load = %g, want 3.75·l", val(loads, RowNormal))
	}
	if !near(val(loads, RowInputChange), 0.03125) {
		t.Errorf("parallel input-change load = %g, want 0.0313·l", val(loads, RowInputChange))
	}
	if !near(val(loads, RowAbort), 0.0125) {
		t.Errorf("parallel abort load = %g, want 0.0125·l", val(loads, RowAbort))
	}
	if !near(val(loads, RowFailure), 0.125) {
		t.Errorf("parallel failure load = %g, want 0.125·l", val(loads, RowFailure))
	}
	if !near(val(loads, RowCoord), 75) {
		t.Errorf("parallel coordination load = %g, want 75·l", val(loads, RowCoord))
	}
	msgs := MessagesPerInstance(Parallel, p)
	if !near(val(msgs, RowNormal), 60) {
		t.Errorf("parallel normal messages = %g, want 60", val(msgs, RowNormal))
	}
	if !near(val(msgs, RowCoord), 300) {
		t.Errorf("parallel coordination messages = %g, want 300", val(msgs, RowCoord))
	}
}

// TestTable6NormalizedValues checks the paper's Table 6 numbers.
func TestTable6NormalizedValues(t *testing.T) {
	p := Default()
	loads := LoadPerInstance(Distributed, p)
	if !near(val(loads, RowNormal), 0.3) {
		t.Errorf("distributed normal load = %g, want 0.3·l", val(loads, RowNormal))
	}
	if !near(val(loads, RowInputChange), 0.0025) {
		t.Errorf("distributed input-change load = %g, want 0.0025·l", val(loads, RowInputChange))
	}
	if !near(val(loads, RowAbort), 0.001) {
		t.Errorf("distributed abort load = %g, want 0.001·l", val(loads, RowAbort))
	}
	if !near(val(loads, RowFailure), 0.01) {
		t.Errorf("distributed failure load = %g, want 0.01·l", val(loads, RowFailure))
	}
	// The paper prints 1.5·l here, but its own expression
	// (me+ro+rd)·a·d·s/z with the stated averages (5·2·1·15/50) gives 3·l;
	// the companion message row (150) confirms a=2 and d=1, so the printed
	// 1.5 is an arithmetic slip in the paper. We stay faithful to the
	// expression.
	if !near(val(loads, RowCoord), 3) {
		t.Errorf("distributed coordination load = %g, want 3·l (paper prints 1.5·l)", val(loads, RowCoord))
	}
	msgs := MessagesPerInstance(Distributed, p)
	if !near(val(msgs, RowNormal), 32) {
		t.Errorf("distributed normal messages = %g, want 32", val(msgs, RowNormal))
	}
	if !near(val(msgs, RowInputChange), 0.45) {
		t.Errorf("distributed input-change messages = %g, want 0.45", val(msgs, RowInputChange))
	}
	if !near(val(msgs, RowAbort), 0.2) {
		t.Errorf("distributed abort messages = %g, want 0.2", val(msgs, RowAbort))
	}
	if !near(val(msgs, RowFailure), 1.8) {
		t.Errorf("distributed failure messages = %g, want 1.8", val(msgs, RowFailure))
	}
	if !near(val(msgs, RowCoord), 150) {
		t.Errorf("distributed coordination messages = %g, want 150", val(msgs, RowCoord))
	}
}

// TestTable7Recommendations verifies the paper's recommended order under the
// default parameters for every criterion.
func TestTable7Recommendations(t *testing.T) {
	p := Default()

	// Load at engine: Distributed < Parallel < Central, for all criteria.
	for _, c := range Criteria {
		rk := RecommendLoad(p, c)
		if rk.Order[0] != Distributed || rk.Order[1] != Parallel || rk.Order[2] != Central {
			t.Errorf("load ranking for %v = %v, want [Distributed Parallel Central]", c, rk.Order)
		}
	}

	// Messages, normal: Distributed first; Parallel and Central tie.
	rk := RecommendMessages(p, NormalOnly)
	if rk.Order[0] != Distributed {
		t.Errorf("normal message ranking = %v, want Distributed first", rk.Order)
	}
	if rk.Rank[Parallel] != rk.Rank[Central] {
		t.Errorf("parallel and central should tie on normal messages: %v", rk.Rank)
	}

	// Messages, normal + failures: Distributed still first (32+2.45 < 60.825).
	rk = RecommendMessages(p, NormalPlusFailures)
	if rk.Order[0] != Distributed {
		t.Errorf("failures message ranking = %v, want Distributed first", rk.Order)
	}

	// Messages, normal + coordinated: Central wins (60 < 182 < 360), then
	// Distributed, then Parallel — exactly Table 7's last column.
	rk = RecommendMessages(p, NormalPlusCoordinated)
	if rk.Order[0] != Central || rk.Order[1] != Distributed || rk.Order[2] != Parallel {
		t.Errorf("coordinated message ranking = %v, want [Central Distributed Parallel]", rk.Order)
	}
}

func TestCoordinationCrossover(t *testing.T) {
	p := Default() // a·d = 2 < e = 4: distributed wins
	if !CoordinationCrossover(p) {
		t.Error("default parameters: distributed should use fewer coordination messages")
	}
	p.A, p.D, p.E = 4, 2, 4 // a·d = 8 >= e = 4
	if CoordinationCrossover(p) {
		t.Error("a·d >= e: parallel should win")
	}
	// Cross-check against the actual expressions.
	m1 := val(MessagesPerInstance(Distributed, p), RowCoord)
	m2 := val(MessagesPerInstance(Parallel, p), RowCoord)
	if m1 < m2 {
		t.Errorf("expressions disagree with crossover: dist=%g par=%g", m1, m2)
	}
}

func TestTable3Ranges(t *testing.T) {
	rows := Table3()
	if len(rows) != 18 {
		t.Fatalf("Table3 rows = %d, want 18", len(rows))
	}
	bySym := map[string]Range{}
	for _, r := range rows {
		if r.Lo > r.Hi {
			t.Errorf("row %s has Lo > Hi", r.Symbol)
		}
		bySym[r.Symbol] = r
	}
	if bySym["s"].Lo != 5 || bySym["s"].Hi != 25 {
		t.Error("s range wrong")
	}
	if bySym["z"].Lo != 10 || bySym["z"].Hi != 100 {
		t.Error("z range wrong")
	}
	if bySym["pf"].Hi != 0.2 {
		t.Error("pf range wrong")
	}
	// Defaults sit inside the ranges.
	p := Default()
	checks := map[string]float64{
		"s": float64(p.S), "e": float64(p.E), "z": float64(p.Z),
		"a": float64(p.A), "d": float64(p.D), "r": float64(p.R),
		"v": float64(p.V), "f": float64(p.F), "w": float64(p.W),
		"me": float64(p.ME), "ro": float64(p.RO), "rd": float64(p.RD),
		"pf": p.PF, "pi": p.PI, "pa": p.PA, "pr": p.PR,
	}
	for sym, v := range checks {
		r, ok := bySym[sym]
		if !ok {
			t.Errorf("missing Table 3 row %q", sym)
			continue
		}
		if v < r.Lo || v > r.Hi {
			t.Errorf("default %s = %g outside range [%g, %g]", sym, v, r.Lo, r.Hi)
		}
	}
}

func TestArchitectureAndCriterionStrings(t *testing.T) {
	if Central.String() != "Central" || Parallel.String() != "Parallel" || Distributed.String() != "Distributed" {
		t.Error("architecture strings wrong")
	}
	if Architecture(9).String() != "Architecture(9)" {
		t.Error("unknown architecture string")
	}
	if NormalOnly.String() != "Normal" || NormalPlusFailures.String() != "Normal + Failures" ||
		NormalPlusCoordinated.String() != "Normal + Coordinated" {
		t.Error("criterion strings wrong")
	}
	if Criterion(9).String() != "Criterion(9)" {
		t.Error("unknown criterion string")
	}
}

// Property: distributed per-node load is never higher than parallel, which
// is never higher than central, for normal execution over the whole Table 3
// parameter space (z >= e >= 1 in the paper's ranges).
func TestPropertyLoadOrdering(t *testing.T) {
	f := func(sRaw, eRaw, zRaw uint8) bool {
		p := Default()
		p.S = 5 + int(sRaw)%21
		p.E = 1 + int(eRaw)%8
		p.Z = 10 + int(zRaw)%91
		if p.Z < p.E {
			p.Z = p.E
		}
		c := val(LoadPerInstance(Central, p), RowNormal)
		pa := val(LoadPerInstance(Parallel, p), RowNormal)
		d := val(LoadPerInstance(Distributed, p), RowNormal)
		return d <= pa+1e-12 && pa <= c+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: distributed normal-execution messages beat centralized whenever
// f < s·a (always true in the paper's ranges, since f <= 4 <= s·a).
func TestPropertyDistributedMessagesWinNormal(t *testing.T) {
	f := func(sRaw, aRaw, fRaw uint8) bool {
		p := Default()
		p.S = 5 + int(sRaw)%21
		p.A = 1 + int(aRaw)%4
		p.F = 1 + int(fRaw)%4
		d := val(MessagesPerInstance(Distributed, p), RowNormal)
		c := val(MessagesPerInstance(Central, p), RowNormal)
		return d < c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: rankings are permutations with ranks starting at 1.
func TestPropertyRankingWellFormed(t *testing.T) {
	f := func(aRaw, dRaw, eRaw uint8, crit uint8) bool {
		p := Default()
		p.A = 1 + int(aRaw)%4
		p.D = int(dRaw) % 3
		p.E = 1 + int(eRaw)%8
		c := Criteria[int(crit)%len(Criteria)]
		for _, rk := range []Ranking{RecommendLoad(p, c), RecommendMessages(p, c)} {
			if len(rk.Order) != 3 {
				return false
			}
			seen := map[Architecture]bool{}
			for _, a := range rk.Order {
				if seen[a] {
					return false
				}
				seen[a] = true
			}
			if rk.Rank[rk.Order[0]] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
