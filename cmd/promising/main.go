// Command promising runs one litmus-format test file exhaustively or
// interactively under the Promising-ARM/RISC-V model (or one of the other
// backends: the naive explorer, the axiomatic model or the flat baseline).
//
// Usage:
//
//	promising [flags] test.litmus
//	promising -interactive test.litmus
//	promising -catalog MP+dmb+addr
//
// Exhaustive mode prints every reachable final state projected onto the
// test's condition, the verdict (allowed/forbidden), and statistics; with
// -witness it also prints a model-level trace for the first outcome
// satisfying the condition.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"promising"
	"promising/internal/litmus"
)

func main() {
	var (
		backend     = flag.String("backend", "promising", "backend: promising, naive, axiomatic, flat")
		interactive = flag.Bool("interactive", false, "step through transitions interactively")
		witness     = flag.Bool("witness", false, "print a witness trace for the condition")
		timeout     = flag.Duration("timeout", 0, "wall-clock budget (0 = unlimited)")
		maxStates   = flag.Int("max-states", 0, "abort after this many states (0 = unlimited)")
		catalogName = flag.String("catalog", "", "run the named built-in catalog test instead of a file")
		list        = flag.Bool("list", false, "list the built-in catalog tests")
	)
	flag.Parse()
	if err := run(*backend, *interactive, *witness, *timeout, *maxStates, *catalogName, *list, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "promising:", err)
		os.Exit(1)
	}
}

func run(backend string, interactive, witness bool, timeout time.Duration, maxStates int, catalogName string, list bool, args []string) error {
	if list {
		for _, t := range promising.Catalog() {
			fmt.Printf("%-24s %s [%s]\n", t.Name(), t.Prog.Arch, t.Expect)
		}
		return nil
	}
	var test *promising.Test
	switch {
	case catalogName != "":
		test = litmus.CatalogTest(catalogName)
	case len(args) == 1:
		src, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		t, err := promising.ParseTest(string(src))
		if err != nil {
			return err
		}
		test = t
	default:
		return fmt.Errorf("expected exactly one test file (or -catalog/-list); see -help")
	}

	if interactive {
		s, err := promising.Interactive(test)
		if err != nil {
			return err
		}
		fmt.Printf("interactive exploration of %s (%s)\n", test.Name(), test.Prog.Arch)
		return s.Run(os.Stdin, os.Stdout)
	}

	opts := promising.Options()
	opts.CollectWitnesses = witness
	opts.MaxStates = maxStates
	if timeout > 0 {
		opts.Deadline = time.Now().Add(timeout)
	}
	v, err := promising.Run(test, promising.Backend(backend), opts)
	if err != nil {
		return err
	}
	fmt.Println(v.String())
	fmt.Println(promising.FormatOutcomes(v))
	if v.Result.BoundExceeded {
		fmt.Println("note: some executions exceeded the loop bound; the outcome set is a lower bound")
	}
	if v.Result.DeadEnds > 0 {
		fmt.Printf("note: %d dead-end states (ARM store-exclusive deadlocks or pruned paths)\n", v.Result.DeadEnds)
	}
	if v.Result.Aborted {
		fmt.Println("note: exploration aborted early (timeout or state limit)")
	}
	if witness && test.Cond != nil {
		printWitness(v, test)
	}
	return nil
}

func printWitness(v *promising.Verdict, test *promising.Test) {
	for k, o := range v.Result.Outcomes {
		if !litmus.Eval(test.Cond, v.Spec, o) {
			continue
		}
		w, ok := v.Result.Witnesses[k]
		if !ok {
			fmt.Println("no witness collected for the matching outcome")
			return
		}
		fmt.Printf("witness for %s (%d steps):\n", test.Cond.String(), len(w.Labels))
		for i, l := range w.Labels {
			fmt.Printf("  %3d. %s\n", i+1, l.String())
		}
		return
	}
	fmt.Println("condition unsatisfied: no witness")
}
