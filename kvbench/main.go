// Command kvbench measures the KV service and the embedded store end to end
// and layer by layer. It runs one workload per invocation, in-process,
// against the public API of package kv:
//
//	kv-mixed    in-memory kv.Server over loopback HTTP, GET/PUT/DELETE/SCAN 60/25/10/5
//	kv-durable  the same server with kvserver's WAL settings, log on wal.MemFS, 20/65/10/5
//	store-hot   kv.Store called directly on 16 hot keys, 64/25/10/1
//
// Load is closed loop: min(2, nproc) clients, each issuing its next operation
// when the previous one has been answered and checked. Every value read is
// verified (see check.go); any wrong answer fails the run, which then prints
// no metrics and exits 1.
//
// Usage, from the repository root:
//
//	bash kvbench/run.sh --workload kv-mixed --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. The lines before it stamp the host and
// build and print every figure by name with its unit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

type workload struct {
	name    string
	http    bool
	durable bool
	keys    int
	mix     [nOps]int // percent of GET, PUT, DELETE, SCAN
}

var workloads = []workload{
	{name: "kv-mixed", http: true, keys: 8192, mix: [nOps]int{60, 25, 10, 5}},
	{name: "kv-durable", http: true, durable: true, keys: 8192, mix: [nOps]int{20, 65, 10, 5}},
	{name: "store-hot", keys: 16, mix: [nOps]int{64, 25, 10, 1}},
}

type metricDef struct{ name, unit string }

// The metric sets reported with --trace 0 and --trace 1. BENCHMARK.json at
// the repository root lists the same names and units.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s"},
	{"get_p50_us", "us"}, {"get_p99_us", "us"},
	{"put_p50_us", "us"}, {"put_p99_us", "us"},
	{"delete_p50_us", "us"}, {"delete_p99_us", "us"},
	{"scan_p50_us", "us"}, {"scan_p99_us", "us"},
	{"space_amp", "ratio"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"kv.server.handler_p50_us", "us"}, {"kv.server.handler_p99_us", "us"},
	{"kv.server.transport_p50_us", "us"}, {"kv.server.handler_share", "ratio"},
	{"kv.server.resp_bytes_per_op", "B/op"}, {"kv.server.errors_5xx", "count"},
	{"kv.server.sheds", "count"},
	{"kv.store.ops", "count"}, {"kv.store.deadline_hits", "count"},
	{"kv.store.pool_occupancy", "ratio"}, {"kv.store.len_end", "count"},
	{"kv.store.tombstones_end", "count"},
	{"htm.starts", "count"}, {"htm.commits", "count"}, {"htm.commit_ratio", "ratio"},
	{"htm.starts_per_store_op", "ratio"},
	{"htm.aborts.conflict", "count"}, {"htm.aborts.illegal", "count"},
	{"htm.aborts.capacity", "count"}, {"htm.aborts.overflow", "count"},
	{"htm.aborts.fallback", "count"},
	{"htm.fallback_runs", "count"}, {"htm.fallback_waits", "count"},
	{"htm.fallback_retries", "count"},
	{"htm.alloc_calls", "count"}, {"htm.free_calls", "count"},
	{"htm.live_bytes_end", "B"}, {"htm.max_live_bytes", "B"},
	{"kv.wal.appends", "count"}, {"kv.wal.syncs", "count"},
	{"kv.wal.appends_per_sync", "ratio"}, {"kv.wal.bytes_per_user_byte", "ratio"},
	{"kv.wal.snapshots", "count"}, {"kv.wal.rotations", "count"},
	{"kv.wal.sync_p50_us", "us"}, {"kv.wal.sync_p99_us", "us"},
	{"kv.wal.sync_busy_share", "ratio"}, {"kv.wal.write_p50_us", "us"},
	{"kv.wal.snapshot_bytes", "B"}, {"kv.wal.recovery_records", "count"},
	{"kv.wal.recovery_s", "s"},
	{"kv.jobs.sweeps", "count"}, {"kv.jobs.jobs_run", "count"},
	{"kv.jobs.tombstones_cleared", "count"},
	{"go.alloc_bytes_per_op", "B/op"}, {"go.allocs_per_op", "1/op"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: kv-mixed, kv-durable or store-hot")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds (after set-up and a warm-up)")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	workDir := flag.String("work-dir", ".bench_build", "directory for WAL directories and trace files")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "kvbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		return 2
	}
	p := params{wl: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: *workDir}
	p.clients = min(2, runtime.NumCPU())
	printStamp(p)

	res, err := measure(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		if !errors.Is(err, errWrong) {
			return 2
		}
		out := output{Correct: false, Metrics: map[string]metricValue{}}
		if res != nil {
			out.Attempted, out.Failed = res.attempted, res.failed
		}
		printJSON(out)
		return 1
	}

	defs, values := endToEnd, res.e2e
	if p.trace {
		defs, values = perLayer, res.layer
	}
	fmt.Printf("# samples:")
	for op, n := range res.samples {
		fmt.Printf(" %s=%d", opNames[op], n)
	}
	fmt.Printf("  attempted=%d failed=%d failed_ratio=%.6f\n", res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)))
	for _, line := range res.notes {
		fmt.Println("#", line)
	}
	out := output{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.name]
		fmt.Printf("%-30s %14.4f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	printJSON(out)
	return 0
}

func printJSON(out output) {
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	fmt.Println(string(b))
}

func printStamp(p params) {
	fmt.Printf("# kvbench workload=%s seed=%d seconds=%d trace=%v\n", p.wl.name, p.seed, p.seconds, p.trace)
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d go=%s os=%s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("# source: git=%s tree-sha256=%s\n", gitRevision(), sourceDigest())
	mix := make([]string, nOps)
	for op, pct := range p.wl.mix {
		mix[op] = fmt.Sprintf("%s=%d%%", opNames[op], pct)
	}
	transport := "direct kv.Store calls"
	if p.wl.http {
		transport = "kv.Server over loopback HTTP, one keep-alive connection per client"
	}
	fmt.Printf("# load: %d closed-loop clients, %s, keys=%d, value=%dB, %s\n", p.clients, transport, p.wl.keys, valueBytes, strings.Join(mix, " "))
	flush := "none (in-memory store)"
	switch {
	case p.wl.durable && p.trace:
		flush = fmt.Sprintf("WAL on the real filesystem in a fresh directory, write+fsync per group-commit batch, SnapshotEvery=%d (kvserver's defaults)", snapshotEvery)
	case p.wl.durable:
		flush = fmt.Sprintf("WAL on the in-memory wal.MemFS (no device), write+fsync per group-commit batch, SnapshotEvery=%d (kvserver's defaults)", snapshotEvery)
	}
	fmt.Printf("# flush policy: %s\n", flush)
	fmt.Printf("# timing: setup x%d (median reported), warm-up %s discarded, then %ds measured in %d windows\n",
		setupRepeats, warmup, p.seconds, windowsFor(p.seconds))
}

func windowsFor(seconds int) int { return max(2, seconds) }

// Stamp helpers. The benchmark may run from a plain source tree with no git
// metadata, so the tree's own digest identifies the code as well.

func gitRevision() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, r, ok := strings.Cut(line, " "); ok && r == ref {
			return sha
		}
	}
	return "unknown"
}
