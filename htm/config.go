package htm

// Rock-like defaults. RockStoreBufferSize is the size of the store buffer on
// Sun's Rock prototype, which bounds the number of distinct words a
// transaction may write (paper §3.4: "we could not use step sizes greater
// than 32, which is the size of Rock's store buffer").
const (
	RockStoreBufferSize = 32

	defaultHeapWords  = 1 << 20
	defaultMaxRetries = 256
	defaultMaxReadSet = 1 << 16
)

// FallbackOwnerBits is the width of the owner thread ID recorded in a word's
// metadata while the fine-grained TLE fallback holds its lock. The merged
// metadata word spends bit 0 on the lock, bit 1 on the allocated flag and the
// top bit on the fallback tag, leaving 61 bits of version field to carry the
// owner while the word is held (the displaced version is preserved in the
// owner's lock-set). Thread IDs are masked to this width; IDs are assigned
// sequentially, so two live threads collide only after 2^61 NewThread calls.
// The owner ID exists for self-deadlock detection and debuggability — no
// correctness decision reads it.
const FallbackOwnerBits = 61

// fallbackOwnerMask truncates a thread ID to the owner field's width.
const fallbackOwnerMask = 1<<FallbackOwnerBits - 1

// Config parameterizes a simulated Heap and its transaction engine. The zero
// value selects Rock-like defaults via NewHeap.
type Config struct {
	// Words is the arena capacity in 64-bit words. Defaults to 1<<20.
	Words int

	// StoreBufferSize bounds the number of distinct words a single
	// transaction may write before aborting with AbortOverflow. Defaults to
	// RockStoreBufferSize (32). Set to a negative value for an unbounded
	// store buffer (a "future HTM", paper §6).
	StoreBufferSize int

	// MaxReadSet bounds the transactional read set; exceeding it aborts with
	// AbortCapacity. Rock tracks reads in the L1 cache, which is large
	// relative to the store buffer, so the default is generous (1<<16).
	// Set to a negative value for an unbounded read set.
	MaxReadSet int

	// NoSandbox disables Rock-style sandboxing. Sandboxed (the default), a
	// transaction that dereferences freed or nil memory aborts with
	// AbortIllegal; with NoSandbox such an access panics, modeling a
	// segmentation fault on HTM designs without sandboxing.
	NoSandbox bool

	// AllowAllocInTxn permits Txn.Alloc and Txn.Free. Rock could not run the
	// CAS-based malloc inside transactions (paper §6), so the paper's
	// algorithms pre-allocate outside transactions; this switch models a
	// TM-aware allocator on a future HTM.
	AllowAllocInTxn bool

	// MaxRetries is the number of attempts Thread.Atomic makes before either
	// engaging the TLE fallback lock (EnableTLE) or panicking. Defaults to
	// 256.
	MaxRetries int

	// EnableTLE enables the transactional-lock-elision fallback described in
	// paper §6: after MaxRetries failed attempts the operation completes on
	// a pessimistic software path instead of retrying forever. By default
	// that path acquires the per-word metadata locks of exactly the words it
	// touches (fine-grained fallback), so fallback operations with disjoint
	// footprints — and hardware transactions on unrelated words — proceed
	// concurrently. Set GlobalFallback to restore the paper's single global
	// fallback lock.
	EnableTLE bool

	// GlobalFallback makes the §6 global-lock fallback the paper describes
	// the INITIAL fallback mode: the fallback operation takes one
	// process-wide lock, every hardware transaction waits out the critical
	// section at begin and validates the lock's sequence number at commit.
	// It serializes all fallback operations and stalls all hardware commits
	// for the duration, but is the faithful Rock-era baseline. The mode is a
	// runtime word either way (Heap.SetFallbackMode, see DESIGN.md "Adaptive
	// contention management"). Only meaningful with EnableTLE.
	GlobalFallback bool

	// DedupBypass seeds the runtime read-set dedup threshold
	// (Heap.SetDedupBypass overrides it): how many (possibly duplicated) read
	// entries a transaction attempt may append before read-set deduplication
	// engages (see Txn's dedup field). Larger values keep repeat-heavy
	// transactions on the zero-bookkeeping bypass path longer at the cost of
	// more duplicate entries to compact; smaller values engage the 512-bit
	// filter earlier. 0 selects the default (4096); negative engages dedup from
	// the first read. Whatever the value, the effective threshold never exceeds
	// MaxReadSet/2, which is what preserves the guarantee that a transaction
	// whose distinct read set fits MaxReadSet never aborts with AbortCapacity.
	DedupBypass int

	// NoMaxLive disables exact high-water tracking, removing the last
	// globally shared counters from the allocation fast path. Stats then
	// derives LiveWords from the per-thread cells and MaxLiveWords becomes
	// the largest live count observed at any Stats snapshot. Both are exact
	// when snapshots are taken at quiescence; a mid-run snapshot can tear
	// across cells and over- or under-state them. Throughput-only runs set
	// this; space-measured runs must leave it unset.
	NoMaxLive bool

	// FallbackSpins seeds the runtime out-of-order spin bound
	// (Heap.SetFallbackSpins overrides it): how long the fine-grained TLE
	// fallback spins on a locked word it reached OUT OF ADDRESS ORDER before
	// engaging the deadlock-avoidance release-and-retry protocol (drop the
	// whole lock-set, re-run the body). In-order acquisitions spin
	// indefinitely — they cannot deadlock. 0 selects the default (128, see
	// defaultFallbackSpins); negative releases-and-retries immediately on any
	// out-of-order collision (maximally paranoid, maximally
	// re-execution-happy). Only meaningful with EnableTLE.
	FallbackSpins int

	// Faults attaches a seeded fault-injection plan (see FaultPlan). nil — the
	// default — injects nothing and costs one pointer check per transactional
	// operation. The same Config value (plan included) reproduces the same
	// injected fault sequence for equal executions.
	Faults *FaultPlan

	// YieldEvery makes a running transaction yield the processor after every
	// N transactional accesses (0 = never). On hosts with fewer cores than
	// simulated threads, goroutines otherwise run whole transactions within
	// one scheduler quantum and cross-thread conflicts almost never occur;
	// yielding mid-transaction restores the property that a transaction
	// occupies a window of real time during which other "cores" run, so the
	// conflict/abort gradient the paper sweeps is reproduced. Benchmarks set
	// this; unit tests of engine semantics leave it 0.
	YieldEvery int

	// sandboxed is the derived internal form of !NoSandbox, set by
	// withDefaults so the zero Config is Rock-like.
	sandboxed bool

	// trackMaxLive is the derived internal form of !NoMaxLive: exact
	// LiveWords/MaxLiveWords maintenance on the alloc/free path (a globally
	// shared live counter plus a CAS high-water loop per allocation), which
	// is what the paper's space figures need. Set by withDefaults so the
	// zero Config is exact.
	trackMaxLive bool
}

func (c Config) withDefaults() Config {
	if c.Words <= 0 {
		c.Words = defaultHeapWords
	}
	if c.StoreBufferSize == 0 {
		c.StoreBufferSize = RockStoreBufferSize
	}
	if c.MaxReadSet == 0 {
		c.MaxReadSet = defaultMaxReadSet
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = defaultMaxRetries
	}
	c.sandboxed = !c.NoSandbox
	c.trackMaxLive = !c.NoMaxLive
	return c
}

// fallbackSpins resolves the FallbackSpins knob: the out-of-order try-lock
// spin bound used by the fine-grained fallback's deadlock avoidance.
func (c Config) fallbackSpins() int {
	switch {
	case c.FallbackSpins > 0:
		return c.FallbackSpins
	case c.FallbackSpins < 0:
		return 0
	default:
		return defaultFallbackSpins
	}
}

// dedupBypassThreshold resolves the DedupBypass knob against MaxReadSet: the
// read-set length at which an attempt switches from bypass to filtered mode.
func (c Config) dedupBypassThreshold() int {
	cap := bypassReadCap
	switch {
	case c.DedupBypass > 0:
		cap = c.DedupBypass
	case c.DedupBypass < 0:
		cap = 0
	}
	if mrs := c.MaxReadSet; mrs >= 0 && mrs/2 < cap {
		return mrs / 2
	}
	return cap
}
