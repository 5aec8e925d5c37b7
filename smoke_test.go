package repro

// Smoke tests for the demo surface: every example and command must build and
// exit cleanly, so CI catches drift between the libraries and the binaries
// that showcase them. Binaries are DISCOVERED from cmd/ and examples/, not
// hand-listed — adding a binary without a smoke run is impossible; the args
// map only overrides how a binary is exercised.

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/harness"
)

// discoverPackages returns "./dir/name" for every subdirectory of the given
// roots (each is a main package in this repo's layout).
func discoverPackages(t *testing.T, roots ...string) []string {
	t.Helper()
	var pkgs []string
	for _, root := range roots {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatalf("reading %s: %v", root, err)
		}
		for _, e := range entries {
			if e.IsDir() {
				pkgs = append(pkgs, "./"+filepath.ToSlash(filepath.Join(root, e.Name())))
			}
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("discovered no binaries")
	}
	return pkgs
}

func TestSmokeExamplesAndCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every demo binary")
	}
	tmp := t.TempDir()
	collectJSON := filepath.Join(tmp, "collect.json")

	// Per-binary invocation overrides. Anything not listed here runs with
	// -help: flag's ExitOnError usage path exits 0 and prints the flag set, so
	// a discovered server or driver binary still proves it builds, parses its
	// flags, and says something — without needing a live counterpart.
	argsFor := map[string][]string{
		"./examples/quickstart":  {},
		"./examples/queue":       {},
		"./examples/adaptive":    {},
		"./examples/reclamation": {},
		"./cmd/queuebench":       {"-quick", "-duration", "10ms", "-threads", "4"},
		"./cmd/fallbackbench":    {"-quick", "-duration", "10ms", "-threads", "4"},
		"./cmd/collectbench":     {"-quick", "-duration", "10ms", "-threads", "4", "-exp", "fig3", "-json", collectJSON},
		"./cmd/experiments":      {"-quick", "-duration", "10ms"},
		"./cmd/kvserver":         {"-help"},
		"./cmd/kvload":           {"-help"},
		// A real (tiny) chaos run: deterministic shadow-model phase plus the
		// overload sweep, exit 0 = model, sweep and determinism checks passed.
		// Runs with a pinned (observe-only) tuner so the determinism contract
		// is exercised with the tuner's sampling goroutine live on every test
		// invocation (CI also runs it without, and runs both same-seed pairs
		// under -race).
		"./cmd/chaoskv": {"-seed", "1", "-ops", "300", "-duration", "30ms", "-clients", "4", "-adapt-pinned"},
		// A real (tiny) crash run: two SIGKILL/restart cycles plus the torn
		// and mid-log phases against a real kvserver process; exit 0 = zero
		// acknowledged-write loss and the refuse-to-start contract held.
		"./cmd/crashkv": {"-quick", "-seed", "1", "-cycles", "2", "-clients", "2", "-keys", "8"},
		// Self-diff of the committed snapshot: must exit 0 (no regressions,
		// no shrunken coverage).
		"./cmd/benchtrend": {"-fail-shrunk", "BENCH_PR12.json", "BENCH_PR12.json"},
	}

	pkgs := discoverPackages(t, "cmd", "examples")
	for _, pkg := range pkgs {
		pkg := pkg
		args, ok := argsFor[pkg]
		if !ok {
			args = []string{"-help"}
		}
		t.Run(pkg[2:], func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, "go", append([]string{"run", pkg}, args...)...)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("go run %s %v failed: %v\n%s", pkg, args, err, out)
			}
			if len(out) == 0 {
				t.Errorf("go run %s produced no output", pkg)
			}
		})
	}

	// Consecutive committed snapshots: each PR's snapshot must cover every
	// series its predecessor recorded. -coverage-only ignores the per-point
	// deltas — snapshots are measured on different days, so only coverage is
	// a deterministic, comparable property.
	chain := [][2]string{
		{"BENCH_PR4.json", "BENCH_PR5.json"},
		{"BENCH_PR5.json", "BENCH_PR6.json"},
		{"BENCH_PR6.json", "BENCH_PR7.json"},
		{"BENCH_PR7.json", "BENCH_PR8.json"},
		{"BENCH_PR8.json", "BENCH_PR9.json"},
		{"BENCH_PR9.json", "BENCH_PR10.json"},
	}
	for _, link := range chain {
		link := link
		t.Run("coverage-chain/"+link[0]+"->"+link[1], func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, "go", "run", "./cmd/benchtrend", "-coverage-only", link[0], link[1])
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("coverage gate %s -> %s failed: %v\n%s", link[0], link[1], err, out)
			}
		})
	}

	// BENCH_PR10.json -> BENCH_PR12.json is the one link where coverage
	// shrinks on purpose: the single-clock, per-word-metadata engine retired
	// the clock-shard and stripe-shift knobs and with them exactly these two
	// figures. Every other point the older snapshot recorded must still be
	// covered.
	t.Run("coverage-chain/BENCH_PR10.json->BENCH_PR12.json", func(t *testing.T) {
		retired := map[string]bool{
			"Sharded clock: disjoint read-write commits [ops/us]": true,
			"Stripe knob: neighbor-word commits, 8 threads":       true,
		}
		oldR, err := harness.ReadJSONFile("BENCH_PR10.json")
		if err != nil {
			t.Fatal(err)
		}
		newR, err := harness.ReadJSONFile("BENCH_PR12.json")
		if err != nil {
			t.Fatal(err)
		}
		kept := oldR.Tables[:0:0]
		for _, tab := range oldR.Tables {
			if !retired[tab.Title] {
				kept = append(kept, tab)
			}
		}
		if len(oldR.Tables)-len(kept) != len(retired) {
			t.Fatalf("BENCH_PR10.json holds %d of the %d retired tables", len(oldR.Tables)-len(kept), len(retired))
		}
		for _, tab := range newR.Tables {
			if retired[tab.Title] {
				t.Errorf("BENCH_PR12.json still records retired table %q", tab.Title)
			}
		}
		oldR.Tables = kept
		if d := harness.DiffReports(oldR, newR, 1e9); d.MissingInNew != 0 {
			t.Errorf("BENCH_PR12.json lost %d points beyond the retired tables", d.MissingInNew)
		}
	})
}

// TestSmokeFallbackbenchAppendReplaces runs fallbackbench -json twice into the
// same report file, the second time with -append — the shape of the CI bench
// pipeline, where a report is extended in place. Report.AddTable replaces a
// same-title table rather than appending a duplicate, so the merged report
// must carry each figure exactly once, the new adaptive phase-shift figure
// included.
func TestSmokeFallbackbenchAppendReplaces(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fallbackbench binary twice")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	run := func(extra ...string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		defer cancel()
		args := append([]string{"run", "./cmd/fallbackbench",
			"-quick", "-duration", "10ms", "-threads", "4", "-json", out}, extra...)
		cmd := exec.CommandContext(ctx, "go", args...)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v failed: %v\n%s", args, err, b)
		}
	}
	run()
	run("-append")

	rep, err := harness.ReadJSONFile(out)
	if err != nil {
		t.Fatalf("reading merged report: %v", err)
	}
	seen := map[string]bool{}
	for _, tb := range rep.Tables {
		if seen[tb.Title] {
			t.Errorf("-append duplicated table %q", tb.Title)
		}
		seen[tb.Title] = true
	}
	const adaptiveTitle = "Adaptive contention management: phase-shift overflow [ops/us]"
	if !seen[adaptiveTitle] {
		t.Errorf("merged report is missing the adaptive figure %q; has %d tables", adaptiveTitle, len(rep.Tables))
	}
}
