// Command lawsc compiles a LAWS workflow specification and prints a summary
// of the compiled library — workflow classes, steps, control structure,
// failure handling and coordination specs — or the compilation error.
//
// Usage:
//
//	lawsc file.laws
//	lawsc -rules file.laws     # also print the generated ECA rules
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"crew/internal/laws"
	"crew/internal/model"
	"crew/internal/rules"
)

func main() {
	showRules := flag.Bool("rules", false, "print the generated ECA rules per step")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lawsc [-rules] file.laws")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "lawsc:", err)
		os.Exit(1)
	}
	lib, err := laws.Compile(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "lawsc:", err)
		os.Exit(1)
	}
	for _, name := range lib.Names() {
		s := lib.Schema(name)
		fmt.Printf("workflow %s  (%d steps, %d arcs, inputs: %s)\n",
			s.Name, len(s.Steps), len(s.Arcs), strings.Join(s.Inputs, ", "))
		for _, st := range s.StepList() {
			fmt.Printf("  step %-14s %s\n", st.ID, describeStep(st))
		}
		starts, terms := s.StartSteps(), s.TerminalSteps()
		fmt.Printf("  start: %v  terminal: %v\n", starts, terms)
		for _, a := range s.Arcs {
			arrow := "->"
			if a.Loop {
				arrow = "~>"
			}
			cond := ""
			if a.Cond != "" {
				cond = fmt.Sprintf("  when %q", a.Cond)
			}
			fmt.Printf("  %s %s %s%s\n", a.From, arrow, a.To, cond)
		}
		failSteps := make([]model.StepID, 0, len(s.OnFailure))
		for step := range s.OnFailure {
			failSteps = append(failSteps, step)
		}
		sort.Slice(failSteps, func(i, j int) bool { return failSteps[i] < failSteps[j] })
		for _, step := range failSteps {
			pol := s.OnFailure[step]
			fmt.Printf("  on failure of %s: rollback to %s (attempts %d)\n", step, pol.RollbackTo, pol.Attempts())
		}
		for _, set := range s.CompSets {
			fmt.Printf("  compensation dependent set: %v\n", set)
		}
		if len(s.AbortCompensate) > 0 {
			fmt.Printf("  abort compensates: %v\n", s.AbortCompensate)
		}
		if *showRules {
			for _, r := range rules.SchemaProgram(s).Rules() {
				cond := ""
				if r.Precond != nil {
					cond = fmt.Sprintf("  if %q", r.Precond.Source())
				}
				fmt.Printf("  rule %-16s on %v%s -> execute %s\n", r.ID, r.Events, cond, r.Step)
			}
		}
		fmt.Println()
	}
	for _, c := range lib.Coord {
		switch c.Kind {
		case model.RelativeOrder:
			fmt.Printf("relative order %q:\n", c.Name)
			for _, p := range c.Pairs {
				fmt.Printf("  pair %s ~ %s\n", p.A, p.B)
			}
		case model.Mutex:
			refs := make([]string, len(c.MutexSteps))
			for i, r := range c.MutexSteps {
				refs[i] = r.String()
			}
			fmt.Printf("mutex %q: %s\n", c.Name, strings.Join(refs, ", "))
		case model.RollbackDep:
			fmt.Printf("rollback of %s forces %s\n", c.Trigger, c.Target)
		}
	}
}

func describeStep(st *model.Step) string {
	var parts []string
	if st.Nested != "" {
		parts = append(parts, "nested "+st.Nested)
	} else {
		parts = append(parts, fmt.Sprintf("program %q", st.Program))
	}
	if st.Compensation != "" {
		parts = append(parts, fmt.Sprintf("compensation %q", st.Compensation))
	}
	if len(st.EligibleAgents) > 0 {
		parts = append(parts, "agents "+strings.Join(st.EligibleAgents, ","))
	}
	if st.Update {
		parts = append(parts, "update")
	}
	if st.Incremental {
		parts = append(parts, "incremental")
	}
	if st.Join == model.JoinAny {
		parts = append(parts, "join any")
	}
	if st.ReexecCond != "" {
		parts = append(parts, fmt.Sprintf("reexec when %q", st.ReexecCond))
	}
	return strings.Join(parts, ", ")
}
