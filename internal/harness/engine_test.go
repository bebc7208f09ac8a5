package harness

import "testing"

// TestEngineWorkersTableIdentical: the cycle-engine worker count is
// invisible in experiment output. A session whose simulations run on
// the parallel engine (SMWorkers=2, a two-worker pool per simulation)
// renders a table byte-identical to a session pinned to the sequential
// engine. The sessions share no cache, so both genuinely simulate —
// this is an engine-determinism check, not a cache-identity check.
func TestEngineWorkersTableIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	const id = "fig12a"

	seq := NewSession(1)
	seq.SMWorkers = 1
	seqRuns := 0
	seq.Progress = func(string) { seqRuns++ }
	seqTab, err := seq.Experiment(id)
	if err != nil {
		t.Fatal(err)
	}

	par := NewSession(1)
	par.SMWorkers = 2
	parRuns := 0
	par.Progress = func(string) { parRuns++ }
	parTab, err := par.Experiment(id)
	if err != nil {
		t.Fatal(err)
	}

	if seqRuns == 0 || parRuns != seqRuns {
		t.Fatalf("sessions did not both simulate the full matrix: seq=%d par=%d", seqRuns, parRuns)
	}
	if seqTab.Format() != parTab.Format() {
		t.Errorf("parallel-engine table differs from sequential:\n--- sequential\n%s--- parallel\n%s",
			seqTab.Format(), parTab.Format())
	}
}
