// Command kvserver serves the transactional KV engine (package kv) over
// HTTP. The storage engine is the simulated HTM heap: every GET/PUT/DELETE/
// SCAN request runs as one heap transaction (TLE whose fallback mode the
// store's contention tuner steers: fine-grained lock-set by default, the
// paper's global lock while fallback footprints collide), and background
// expiry/compaction jobs flow through an on-heap concurrent queue. SIGINT/SIGTERM trigger a graceful shutdown: in-flight
// requests complete, the job pipeline drains, and the process exits 0 — the
// contract the CI e2e job asserts.
//
// Usage:
//
//	kvserver [-addr 127.0.0.1:7070] [-slots 16384] [-heap-words N]
//	         [-pool N] [-max-value 4096] [-sweep 2s] [-job-workers 2]
//	         [-job-queue htm|ms|rop|ebr] [-verbose]
//	         [-admission] [-req-timeout 0] [-max-retries 0]
//	         [-fault-seed 1] [-fault-begin P] [-fault-access P]
//	         [-fault-commit P] [-fault-stall P]
//	         [-wal-dir DIR] [-fsync=true] [-snapshot-every N]
//	         [-segment-bytes N]
//
// The -fault-* flags attach a seeded injection plan (htm.FaultPlan) to the
// heap — the chaos knobs, usable against a live server; -admission turns on
// load shedding (503 + Retry-After under pool saturation, or when the
// tuner's last epoch saw an abort storm against the heap's tracked abort
// mix) and -req-timeout bounds each request's store operation. The startup
// line reports the fallback mode the tuner starts from (mode=fine); /stats
// reports where it is now.
//
// -wal-dir turns on durability: acknowledged mutations are written to a
// CRC-framed commit log before the response goes out, snapshots truncate old
// history every -snapshot-every mutations, and startup replays the directory
// (logging whether the previous shutdown was clean). A torn log tail is
// repaired by truncation; unrecoverable state — mid-log corruption, missing
// segments — is reported with the file and offset and the process exits 3
// rather than serve data it cannot trust (move the directory aside, or
// restore it, to start fresh).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/htm"
	"repro/kv"
	"repro/kv/wal"
	"repro/queue"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	slots := flag.Int("slots", kv.DefaultSlots, "hash index capacity (rounded up to a power of two)")
	heapWords := flag.Int("heap-words", 0, "heap arena size in 64-bit words (0 = derived from -slots)")
	pool := flag.Int("pool", 0, "execution-context pool size / engine concurrency (0 = 4*GOMAXPROCS)")
	maxValue := flag.Int("max-value", kv.DefaultMaxValueBytes, "maximum value size in bytes")
	sweep := flag.Duration("sweep", 2*time.Second, "interval between background expiry/compaction sweeps")
	jobWorkers := flag.Int("job-workers", 2, "background job worker goroutines")
	jobQueue := flag.String("job-queue", "htm", "job queue implementation: htm, ms, rop or ebr")
	verbose := flag.Bool("verbose", false, "log every request")
	admission := flag.Bool("admission", false, "shed load (503 + Retry-After) under pool saturation or abort storms")
	reqTimeout := flag.Duration("req-timeout", 0, "per-request store-operation deadline (0 = unbounded)")
	maxRetries := flag.Int("max-retries", 0, "hardware retry budget before the TLE fallback (0 = engine default)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the -fault-* injection plan")
	faultBegin := flag.Float64("fault-begin", 0, "probability of a spurious abort at transaction begin")
	faultAccess := flag.Float64("fault-access", 0, "probability of a spurious abort per transactional access")
	faultCommit := flag.Float64("fault-commit", 0, "probability of a spurious abort at commit-point")
	faultStall := flag.Float64("fault-stall", 0, "probability a fallback run stalls while holding its lock-set")
	walDir := flag.String("wal-dir", "", "durability directory for the commit log and snapshots (empty = in-memory only)")
	fsync := flag.Bool("fsync", true, "fsync each commit-log batch (false trades durability for throughput)")
	snapshotEvery := flag.Int("snapshot-every", 4096, "mutations between automatic snapshots (0 = never snapshot)")
	segmentBytes := flag.Int("segment-bytes", 0, "commit-log segment rotation threshold in bytes (0 = default 4 MiB)")
	flag.Parse()

	newQueue, err := queueFactory(*jobQueue)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvserver: %v\n", err)
		return 2
	}

	var plan *htm.FaultPlan
	if *faultBegin > 0 || *faultAccess > 0 || *faultCommit > 0 || *faultStall > 0 {
		plan = &htm.FaultPlan{
			Seed:       *faultSeed,
			BeginProb:  *faultBegin,
			AccessProb: *faultAccess,
			CommitProb: *faultCommit,
			StallProb:  *faultStall,
			MaxPerOp:   64, // a live server must keep terminating under any dial setting
		}
	}
	cfg := kv.Config{
		Slots:         *slots,
		HeapWords:     *heapWords,
		MaxValueBytes: *maxValue,
		PoolThreads:   *pool,
		MaxRetries:    *maxRetries,
		Faults:        plan,
	}
	if *walDir != "" {
		cfg.Durability = &kv.Durability{
			Dir:           *walDir,
			SegmentBytes:  *segmentBytes,
			NoSync:        !*fsync,
			SnapshotEvery: *snapshotEvery,
		}
	}
	store, err := kv.Open(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvserver: %v\n", err)
		if errors.Is(err, wal.ErrRecovery) {
			fmt.Fprintf(os.Stderr, "kvserver: the log in %s is unrecoverable; refusing to serve state that may be wrong.\n"+
				"kvserver: move the directory aside (or restore it from a copy) and restart to begin empty.\n", *walDir)
			return 3
		}
		return 1
	}
	if ri := store.Recovery(); ri != nil {
		mode := "crash recovery"
		if ri.Clean {
			mode = "clean start"
		}
		log.Printf("kvserver: %s from %s: %d entries (snapshot=%d log=%d applied=%d segments=%d seq=%d) in %s",
			mode, *walDir, ri.Entries, ri.SnapshotEntries, ri.LogRecords, ri.Applied, ri.Segments, ri.MaxSeq,
			ri.Elapsed.Round(time.Microsecond))
		if ri.TruncatedBytes > 0 {
			log.Printf("kvserver: truncated %d-byte torn tail from %s (crash mid-write; unacknowledged data discarded)",
				ri.TruncatedBytes, ri.TornSegment)
		}
	}
	opts := []kv.ServerOption{kv.WithJobs(kv.JobsConfig{
		Interval: *sweep,
		Workers:  *jobWorkers,
		NewQueue: newQueue,
	})}
	if *verbose {
		opts = append(opts, kv.WithRequestLog(nil))
	}
	if *admission {
		opts = append(opts, kv.WithAdmissionControl())
	}
	if *reqTimeout > 0 {
		opts = append(opts, kv.WithRequestTimeout(*reqTimeout))
	}
	srv := kv.NewServer(store, opts...)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvserver: listen: %v\n", err)
		return 1
	}
	// Log the bound address the moment the listener exists — before signal
	// wiring or anything else that could delay (or, failing, suppress) the
	// line. Supervisors and the CI e2e script treat it as the readiness
	// signal, and with -addr :0 it is the only way to learn the chosen port.
	log.Printf("kvserver: serving on http://%s (slots=%d heap=%dw pool=%d queue=%s faults=%v durable=%v mode=%s)",
		ln.Addr(), store.Slots(), store.Heap().Config().Words, store.PoolSize(), *jobQueue, plan != nil, store.Durable(), store.Heap().FallbackMode())
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := srv.Serve(ctx, ln); err != nil {
		fmt.Fprintf(os.Stderr, "kvserver: %v\n", err)
		return 1
	}
	st := store.Heap().Stats()
	log.Printf("kvserver: clean shutdown; final heap stats: %s", st)
	return 0
}

// queueFactory maps a -job-queue name to a queue constructor.
func queueFactory(name string) (func(h *htm.Heap) queue.Queue, error) {
	switch name {
	case "htm":
		return func(h *htm.Heap) queue.Queue { return queue.NewHTMQueue(h) }, nil
	case "ms":
		return func(h *htm.Heap) queue.Queue { return queue.NewMSQueue(h) }, nil
	case "rop":
		return func(h *htm.Heap) queue.Queue { return queue.NewMSQueueROP(h) }, nil
	case "ebr":
		return func(h *htm.Heap) queue.Queue { return queue.NewMSQueueEBR(h) }, nil
	default:
		return nil, fmt.Errorf("unknown -job-queue %q (want htm, ms, rop or ebr)", name)
	}
}
