package htm

import "runtime"

// Seeded fault injection for the simulated HTM. Rock transactions abort for
// reasons that have nothing to do with the transaction itself — interrupts,
// TLB misses, cache-line displacement (paper §3) — so code above the engine
// must treat EVERY attempt as killable. Our engine's self-inflicted aborts
// (conflict/overflow/capacity/illegal) are deterministic consequences of the
// workload; a FaultPlan restores the environmental ones, replayably: each
// thread derives its own PRNG from the plan seed and its thread ID, so a run
// with the same plan, the same thread-creation order and the same per-thread
// operation sequence injects the identical fault sequence. There is no global
// or time-dependent state anywhere in the subsystem.
//
// Injection is confined to the hardware path. The TLE fallback is software —
// on Rock it runs under a lock, not in a transaction — so it is never killed;
// that is precisely what makes every Atomic call terminate under ANY injection
// rate (the satellite termination tests assert this). Fallback adversity is
// modeled separately, as finite delays: a stall window before the fallback's
// commit (holding its whole lock-set) and a delayed lock-set release after
// write-back, which stretch the windows the deadlock-avoidance protocol and
// the NT/commit spin loops must survive without changing any outcome.

// FaultPlan configures seeded fault injection; hang it off Config.Faults.
// Probabilities are per eligible event in [0, 1]; values ≥ 1 fire always
// (exactly — no PRNG roll), which is what the deterministic termination tests
// rely on. The zero value injects nothing.
type FaultPlan struct {
	// Seed is the root seed; per-thread PRNG streams are derived from it and
	// the thread ID. Two heaps configured with the same plan inject the same
	// faults at the same points of equal executions.
	Seed uint64

	// BeginProb kills an attempt at transaction begin, before the body runs.
	BeginProb float64
	// AccessProb kills an attempt at an eligible transactional Load/Store.
	// Every AccessEvery-th access of an attempt is eligible (default 1 =
	// every access), so long transactions face proportionally more exposure,
	// as on real hardware.
	AccessProb float64
	// AccessEvery spaces the eligible accesses; see AccessProb.
	AccessEvery int
	// CommitProb kills an attempt at the commit point, after the body ran —
	// the most expensive possible abort.
	CommitProb float64

	// MaxPerOp caps injections per Atomic/TryAtomic operation (0 = no cap).
	// With MaxPerOp = MaxRetries-1 and 100% probabilities, every attempt but
	// the last is killed and the last commits in hardware — the shape the
	// termination tests pin down.
	MaxPerOp int

	// StallProb makes a fallback operation stall for StallSpins scheduler
	// yields right before its commit, while holding its entire lock-set —
	// adversity for everyone spinning on those words.
	StallProb float64
	// StallSpins is the stall window length in runtime.Gosched calls
	// (default 64 when StallProb > 0).
	StallSpins int
	// ReleaseDelay inserts this many scheduler yields between a fallback
	// commit's write-back and its lock-set release, widening the window in
	// which other threads observe the words still fallback-locked.
	ReleaseDelay int
}

// enabled reports whether the plan can inject anything at all.
func (p *FaultPlan) enabled() bool {
	if p == nil {
		return false
	}
	return p.BeginProb > 0 || p.AccessProb > 0 || p.CommitProb > 0 ||
		p.StallProb > 0 || p.ReleaseDelay > 0
}

// faultProb is a compiled probability: compare one PRNG draw against thresh,
// with p ≥ 1 special-cased to fire without a draw so "always" is exact.
type faultProb struct {
	thresh uint64
	always bool
}

func compileProb(p float64) faultProb {
	switch {
	case p <= 0:
		return faultProb{}
	case p >= 1:
		return faultProb{always: true}
	default:
		return faultProb{thresh: uint64(p * (1 << 63) * 2)}
	}
}

// fire consumes one PRNG draw iff the probability is fractional.
func (fp faultProb) fire(rng *uint64) bool {
	if fp.always {
		return true
	}
	if fp.thresh == 0 {
		return false
	}
	x := *rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*rng = x
	return x < fp.thresh
}

// threadFaults is one thread's injection state: its private PRNG stream plus
// the compiled plan. It lives on the Thread (nil when no plan is configured),
// so the disabled cost on the transactional hot paths is one nil check.
type threadFaults struct {
	rng    uint64
	begin  faultProb
	access faultProb
	commit faultProb
	stall  faultProb

	accessEvery  int
	maxPerOp     int
	stallSpins   int
	releaseDelay int

	opBudget    int // injections left for the current op; -1 = unlimited
	accessCount int // eligible-access counter, reset each attempt
}

// splitmix64 is the standard seed-mixing finalizer: even near-identical
// inputs (sequential thread IDs) diverge into independent-looking streams.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// newThreadFaults derives a thread's injection state from the plan.
func newThreadFaults(p *FaultPlan, id uint64) *threadFaults {
	f := &threadFaults{
		rng:          splitmix64(p.Seed ^ id*0x9E3779B97F4A7C15),
		begin:        compileProb(p.BeginProb),
		access:       compileProb(p.AccessProb),
		commit:       compileProb(p.CommitProb),
		stall:        compileProb(p.StallProb),
		accessEvery:  p.AccessEvery,
		maxPerOp:     p.MaxPerOp,
		stallSpins:   p.StallSpins,
		releaseDelay: p.ReleaseDelay,
	}
	if f.rng == 0 {
		f.rng = 0x9E3779B97F4A7C15 // xorshift must not start at zero
	}
	if f.accessEvery <= 0 {
		f.accessEvery = 1
	}
	if f.stallSpins <= 0 {
		f.stallSpins = 64
	}
	return f
}

// opStart resets the per-operation injection budget (one Atomic/TryAtomic).
func (f *threadFaults) opStart() {
	if f.maxPerOp > 0 {
		f.opBudget = f.maxPerOp
	} else {
		f.opBudget = -1
	}
}

// attemptStart resets the per-attempt access counter.
func (f *threadFaults) attemptStart() { f.accessCount = 0 }

// spend consumes one unit of the op budget; false means the budget is dry and
// nothing may be injected into this operation anymore.
func (f *threadFaults) spend() bool {
	if f.opBudget == 0 {
		return false
	}
	if f.opBudget > 0 {
		f.opBudget--
	}
	return true
}

// fireBegin decides a begin-site injection for this attempt.
func (f *threadFaults) fireBegin() bool {
	return f.begin.fire(&f.rng) && f.spend()
}

// fireAccess decides an access-site injection; called once per transactional
// Load/Store on the hardware path.
func (f *threadFaults) fireAccess() bool {
	f.accessCount++
	if f.accessCount%f.accessEvery != 0 {
		return false
	}
	return f.access.fire(&f.rng) && f.spend()
}

// fireCommit decides a commit-point injection for this attempt.
func (f *threadFaults) fireCommit() bool {
	return f.commit.fire(&f.rng) && f.spend()
}

// maybeStall runs the fallback lock-holder stall window; returns whether it
// stalled (the caller bumps the counter — stats stay in thread.go).
func (f *threadFaults) maybeStall() bool {
	if !f.stall.fire(&f.rng) {
		return false
	}
	for i := 0; i < f.stallSpins; i++ {
		runtime.Gosched()
	}
	return true
}

// MetaSweep is the result of Heap.SweepMeta: a census of metadata states
// across the whole arena, cross-checked against the allocator's block headers.
type MetaSweep struct {
	// Allocated counts words whose metadata carries the allocated bit — the
	// live payload words. At quiescence this must equal Stats().LiveWords — a
	// mismatch means a transition leaked.
	Allocated uint64
	// Locked counts metadata words whose lock bit is set (commit write-back,
	// NT operation, or fallback hold). Must be zero at quiescence.
	Locked uint64
	// FallbackTagged counts metadata words carrying the fallback lock tag.
	// Must be zero at quiescence — a leftover tag means a fallback lock-set
	// leaked.
	FallbackTagged uint64
	// StripeErrors counts block-header vs metadata disagreements found by the
	// block walk: a payload word of a live block whose metadata is not
	// allocated, a payload word of a free block whose metadata is allocated
	// or locked, or a corrupt header. Must be zero at quiescence.
	StripeErrors uint64
}

// SweepMeta scans the arena's metadata and returns the census. It is a
// diagnostic for quiescent heaps (the chaos harness's post-run invariant
// sweep); concurrent activity makes the counts approximate.
//
// Besides the per-word census it walks every allocator region block by block
// (headers survive free and blocks are carved back to back, so the walk is
// exact) and cross-checks each block's header against its payload words'
// metadata, reporting disagreements in StripeErrors.
func (h *Heap) SweepMeta() MetaSweep {
	var s MetaSweep
	for i := range h.meta {
		m := h.meta[i].Load()
		if metaAllocated(m) {
			s.Allocated++
		}
		if metaLocked(m) {
			s.Locked++
		}
		if metaFallbackLocked(m) {
			s.FallbackTagged++
		}
	}
	for i := range h.alloc.shards {
		sh := &h.alloc.shards[i]
		sh.mu.Lock()
		pos, bump := sh.start, sh.bump
		sh.mu.Unlock()
		for pos < bump {
			hdr := h.words[pos].Load()
			size := int(hdr >> 1)
			if size <= 0 || Addr(size) >= bump-pos {
				s.StripeErrors++ // corrupt header: stop walking this region
				break
			}
			live := hdr&headerAllocBit != 0
			for w := pos + 1; w <= pos+Addr(size); w++ {
				m := h.meta[w].Load()
				if live != metaAllocated(m) || (!live && metaLocked(m)) {
					s.StripeErrors++
				}
			}
			pos += Addr(size + 1)
		}
	}
	return s
}
