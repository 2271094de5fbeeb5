package litmus

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"promising/internal/explore"
)

// The state-count pin for the interleaving explorers (naive and flat):
// outcome-set equality alone does not catch a refactor that explores a
// different number of states, prunes differently or serializes its
// frontier differently. For every catalog test, under reductions on and
// off, at Parallelism 1 (one worker, so states are explored in stack
// order), this records the run's counters and outcome-set hash, then checkpoints the
// same run at a third and two thirds of its states (the second leg in
// delta form), hashes both marshaled snapshots, and resumes to the end.
// The pinned table lives in testdata/statecounts.txt.
//
// Naive rows pin as much as flat rows: certification returns a thread's
// promise steps sorted (core.CertCache.FindAndCertify), so naive's step
// order, and with it the pending states at a checkpoint, is deterministic.

const stateCountGolden = "testdata/statecounts.txt"

// fnvHex hashes the concatenation of parts, each followed by a NUL.
func fnvHex(parts ...[]byte) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// countsOf renders a result's pinned counters.
func countsOf(r *explore.Result) string {
	return fmt.Sprintf("states=%d dead=%d interned=%d symhits=%d pruned=%d",
		r.States, r.DeadEnds, r.Stats.Interned, r.Stats.SymmetryHits, r.Stats.PrunedStates)
}

// snapHash marshals a leg's snapshot and hashes it ("-" when the leg
// completed without one).
func snapHash(t *testing.T, s *explore.Snapshot) string {
	t.Helper()
	if s == nil {
		return "-"
	}
	raw, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return fnvHex(raw)
}

// stateCountRow computes one pinned line: the uninterrupted run's counters
// and outcome hash, then the checkpointed run's snapshot hashes and final
// counters.
func stateCountRow(t *testing.T, tst *Test, b ckptBackend, red explore.ReductionMode) string {
	t.Helper()
	opts := explore.DefaultOptions()
	opts.Parallelism = 1
	opts.Reductions = red
	ref, err := Run(tst, b.run, opts)
	if err != nil {
		t.Fatalf("%s/%s: %v", tst.Name(), b.name, err)
	}
	var keys [][]byte
	for _, k := range outcomeKeys(ref.Result) {
		keys = append(keys, []byte(k))
	}
	row := fmt.Sprintf("%s %s %s %s outcomes=%s", b.name, red, tst.Name(), countsOf(ref.Result), fnvHex(keys...))

	third := ref.Result.States/3 + 1
	opts.Checkpoint = explore.NewCheckpointAfter(third)
	v, err := Run(tst, b.run, opts)
	if err != nil {
		t.Fatalf("%s/%s: leg 1: %v", tst.Name(), b.name, err)
	}
	snap1 := v.Result.Snapshot
	row += " | snap1=" + snapHash(t, snap1)
	if snap1 != nil {
		opts.Checkpoint = explore.NewCheckpointAfter(2 * third)
		opts.DeltaSnapshot = true
		if v, err = RunFrom(tst, b.resume, snap1, opts); err != nil {
			t.Fatalf("%s/%s: leg 2: %v", tst.Name(), b.name, err)
		}
		row += " snap2=" + snapHash(t, v.Result.Snapshot)
		if delta := v.Result.Snapshot; delta != nil {
			full, err := explore.ApplyDelta(snap1, delta)
			if err != nil {
				t.Fatalf("%s/%s: apply delta: %v", tst.Name(), b.name, err)
			}
			opts.Checkpoint = nil
			if v, err = RunFrom(tst, b.resume, full, opts); err != nil {
				t.Fatalf("%s/%s: leg 3: %v", tst.Name(), b.name, err)
			}
		}
	}
	return row + " " + countsOf(v.Result)
}

func stateCountRows(t *testing.T) []string {
	var rows []string
	for _, b := range []ckptBackend{machineCkptBackends[1], otherCkptBackends[0]} {
		for _, red := range []explore.ReductionMode{explore.ReduceOn, explore.ReduceOff} {
			for _, tst := range Catalog() {
				rows = append(rows, stateCountRow(t, tst, b, red))
			}
		}
	}
	return rows
}

// TestInterleavingStateCountsPinned compares the naive and flat explorers'
// counters, outcome sets and snapshot bytes against the pinned table.
func TestInterleavingStateCountsPinned(t *testing.T) {
	f, err := os.Open(stateCountGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want[rowID(line)] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := stateCountRows(t)
	if len(got) != len(want) {
		t.Errorf("%d rows computed, %d pinned", len(got), len(want))
	}
	for _, row := range got {
		if w, ok := want[rowID(row)]; !ok {
			t.Errorf("unpinned row:\n  got  %s", row)
		} else if w != row {
			t.Errorf("pinned row differs:\n  got  %s\n  want %s", row, w)
		}
	}
}

// rowID is a row's backend, reduction mode and test name.
func rowID(row string) string {
	f := strings.Fields(row)
	if len(f) < 3 {
		return row
	}
	return strings.Join(f[:3], " ")
}
