package probe

import (
	"context"
	"fmt"
	"strconv"

	"cloudmap/internal/netblock"
	"cloudmap/internal/obs"
	"cloudmap/internal/ordered"
	"cloudmap/internal/route"
)

// AttemptStats reports what the fault layer did to one traceroute attempt.
// Without an injector only Sent is non-zero.
type AttemptStats struct {
	Sent        int  // probe packets issued (hops plus destination)
	Lost        int  // replies eaten by bursty-loss windows
	RateLimited int  // replies eaten by router ICMP limiters
	Outage      bool // the vantage region was down; nothing was sent
	Flapped     bool // the path was truncated by a link flap
}

// Faulted reports whether the fault layer interfered with the attempt at
// all — the retry trigger.
func (s AttemptStats) Faulted() bool {
	return s.Outage || s.Flapped || s.Lost > 0 || s.RateLimited > 0
}

// RetryPolicy governs re-probing of fault-degraded traceroutes. The zero
// policy (normalised by withDefaults) probes each target exactly once.
type RetryPolicy struct {
	// MaxAttempts bounds attempts per probe, including the first.
	MaxAttempts int `json:"max_attempts"`
	// BackoffSec is the virtual-time delay before the first retry;
	// BackoffFactor multiplies it for each further one.
	BackoffSec    float64 `json:"backoff_sec"`
	BackoffFactor float64 `json:"backoff_factor"`
	// Budget caps total retries across a campaign (0 = unlimited). The
	// budget is split evenly across work chunks so its effect does not
	// depend on worker scheduling; exhausted chunks keep probing without
	// retries (fail soft) and flag BudgetExhausted in the stats.
	Budget int64 `json:"budget,omitempty"`
}

// DefaultRetryPolicy is the policy the CLIs install when -max-retries is
// given without further tuning: three attempts, 1s/2s virtual backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BackoffSec: 1, BackoffFactor: 2}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BackoffSec <= 0 {
		p.BackoffSec = 1
	}
	if p.BackoffFactor <= 0 {
		p.BackoffFactor = 2
	}
	return p
}

// CampaignStats aggregates fault and retry telemetry over one campaign.
// Every field is a sum (or max) of per-probe deterministic events, so stats
// are identical across runs and worker counts.
type CampaignStats struct {
	Targets     int64 `json:"targets"`      // (vm, dst) pairs probed
	Probes      int64 `json:"probes"`       // traceroute attempts, retries included
	HopProbes   int64 `json:"hop_probes"`   // probe packets issued
	Retries     int64 `json:"retries"`      // attempts beyond the first
	Lost        int64 `json:"lost"`         // replies lost to bursty-loss windows
	RateLimited int64 `json:"rate_limited"` // replies suppressed by ICMP limiters
	Outages     int64 `json:"outages"`      // attempts refused by a region outage
	Flapped     int64 `json:"flapped"`      // attempts truncated by a link flap
	// Attempts[i] counts targets resolved with i+1 attempts.
	Attempts []int64 `json:"attempts,omitempty"`
	// BudgetExhausted is set when any chunk wanted a retry it could not
	// afford; the campaign still completes (fail soft).
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
}

// Degraded reports whether the campaign saw any fault activity or ran out
// of retry budget.
func (s CampaignStats) Degraded() bool {
	return s.Lost > 0 || s.RateLimited > 0 || s.Outages > 0 || s.Flapped > 0 || s.BudgetExhausted
}

// Merge folds another chunk's stats into s (order-independent except
// BudgetExhausted, which is an OR).
func (s *CampaignStats) Merge(o CampaignStats) {
	s.Targets += o.Targets
	s.Probes += o.Probes
	s.HopProbes += o.HopProbes
	s.Retries += o.Retries
	s.Lost += o.Lost
	s.RateLimited += o.RateLimited
	s.Outages += o.Outages
	s.Flapped += o.Flapped
	for len(s.Attempts) < len(o.Attempts) {
		s.Attempts = append(s.Attempts, 0)
	}
	for i, n := range o.Attempts {
		s.Attempts[i] += n
	}
	s.BudgetExhausted = s.BudgetExhausted || o.BudgetExhausted
}

func (s *CampaignStats) observe(st AttemptStats) {
	s.Probes++
	s.HopProbes += int64(st.Sent)
	s.Lost += int64(st.Lost)
	s.RateLimited += int64(st.RateLimited)
	if st.Outage {
		s.Outages++
	}
	if st.Flapped {
		s.Flapped++
	}
}

// score ranks traceroute attempts for retry selection: a completed trace
// beats any incomplete one, then more responsive hops win.
func score(hops []Hop, status Status) int {
	s := 0
	for _, h := range hops {
		if h.Responsive() {
			s++
		}
	}
	if status == StatusCompleted {
		s += 1 << 20
	}
	return s
}

// classifyFault names the dominant fault on an attempt — the journal's
// fault-event taxonomy. An attempt can suffer several fault families at
// once; precedence mirrors severity (outage > flap > rate-limited > lost).
func classifyFault(st AttemptStats) string {
	switch {
	case st.Outage:
		return "outage"
	case st.Flapped:
		return "flap"
	case st.RateLimited > 0:
		return "rate-limited"
	default:
		return "lost"
	}
}

// emitFault records one faulted attempt as a journal event on the chunk
// span. Every attr is deterministic: the destination, the 1-based attempt,
// and the virtual send time the fault window was evaluated at.
func emitFault(sp *obs.Span, dst netblock.IP, attempt int, tSec float64, st AttemptStats) {
	if sp == nil {
		return
	}
	attrs := obs.Attrs{
		"dst":       dst.String(),
		"attempt":   strconv.Itoa(attempt),
		"vtime_sec": strconv.FormatFloat(tSec, 'f', 3, 64),
	}
	if st.Lost > 0 {
		attrs["lost"] = strconv.Itoa(st.Lost)
	}
	if st.RateLimited > 0 {
		attrs["rate_limited"] = strconv.Itoa(st.RateLimited)
	}
	sp.Detail("fault", classifyFault(st), uint64(dst)<<8|uint64(attempt), attrs)
}

// traceRetry probes one target with retries, synthesizing every attempt in
// sc. It leaves the kept attempt's hops in sc.best and returns its status:
// the highest-scoring attempt, the earliest on ties so the choice is
// stable. budget counts the retries this chunk may still spend (nil =
// unlimited). sp, when non-nil, receives one "fault" event per faulted
// attempt and one "retry" event per re-probe.
func (p *Prober) traceRetry(sp *obs.Span, prog *obs.Progress, sc *tracer, vm route.VM, vmKey uint64, d route.Dest, pol RetryPolicy, epoch uint64, budget *int64, cs *CampaignStats) Status {
	dst := d.IP
	tSec := p.inj.ScheduleSec(epoch, vmKey, dst)
	var status Status
	var st AttemptStats
	sc.best, status, st = p.synthesize(sc.best, &sc.path, vm, d, tSec)
	cs.Targets++
	cs.observe(st)
	if st.Faulted() {
		emitFault(sp, dst, 1, tSec, st)
	}
	attempts := 1
	backoff := pol.BackoffSec
	for attempts < pol.MaxAttempts && st.Faulted() {
		if budget != nil {
			if *budget <= 0 {
				cs.BudgetExhausted = true
				break
			}
			*budget--
		}
		tSec += backoff
		backoff *= pol.BackoffFactor
		if sp != nil {
			sp.Detail("retry", "attempt", uint64(dst)<<8|uint64(attempts+1), obs.Attrs{
				"dst":       dst.String(),
				"attempt":   strconv.Itoa(attempts + 1),
				"vtime_sec": strconv.FormatFloat(tSec, 'f', 3, 64),
			})
		}
		prog.RetrySpent()
		var retryStatus Status
		sc.hops, retryStatus, st = p.synthesize(sc.hops, &sc.path, vm, d, tSec)
		cs.Retries++
		cs.observe(st)
		if st.Faulted() {
			emitFault(sp, dst, attempts+1, tSec, st)
		}
		if score(sc.hops, retryStatus) > score(sc.best, status) {
			sc.best, sc.hops = sc.hops, sc.best
			status = retryStatus
		}
		attempts++
	}
	if len(cs.Attempts) < pol.MaxAttempts {
		grown := make([]int64, pol.MaxAttempts)
		copy(grown, cs.Attempts)
		cs.Attempts = grown
	}
	cs.Attempts[attempts-1]++
	return status
}

// CampaignRetryCtx runs a campaign under the prober's fault injector with
// per-probe retries, running its work chunks on up to workers goroutines
// through ordered.Run. Traces reach sink in campaign order (VMs in order,
// each VM's targets in order) and the returned fault/retry stats are
// aggregated in chunk order, so both are identical for any worker count.
// A failing chunk ends the campaign with the lowest failing chunk's error;
// cancellation ends it with an error wrapping ctx.Err(). epoch separates
// the virtual schedules of distinct probing rounds (round 1 vs. expansion),
// so a target probed in both rounds lands at independent virtual times.
//
// With a nil injector and a single-attempt policy this degenerates to the
// serial Campaign: every probe runs at virtual time zero and the stats
// carry only probe counts.
func (p *Prober) CampaignRetryCtx(ctx context.Context, vms []VMRef, targets []netblock.IP, workers int, pol RetryPolicy, epoch uint64, sink TraceSink) (CampaignStats, error) {
	return p.CampaignRetryObsCtx(ctx, nil, nil, nil, vms, targets, workers, pol, epoch, sink)
}

// chunkAttrs digests one chunk's campaign stats into journal attrs. All
// fields are deterministic sums of per-probe fault draws, so the chunk's
// end event replays byte-identically at any worker count.
func chunkAttrs(cs CampaignStats) obs.Attrs {
	a := obs.Attrs{
		"targets": strconv.FormatInt(cs.Targets, 10),
		"probes":  strconv.FormatInt(cs.Probes, 10),
	}
	if cs.Retries > 0 {
		a["retries"] = strconv.FormatInt(cs.Retries, 10)
	}
	if cs.Lost > 0 {
		a["lost"] = strconv.FormatInt(cs.Lost, 10)
	}
	if cs.RateLimited > 0 {
		a["rate_limited"] = strconv.FormatInt(cs.RateLimited, 10)
	}
	if cs.Outages > 0 {
		a["outages"] = strconv.FormatInt(cs.Outages, 10)
	}
	if cs.Flapped > 0 {
		a["flapped"] = strconv.FormatInt(cs.Flapped, 10)
	}
	if cs.BudgetExhausted {
		a["budget_exhausted"] = "true"
	}
	return a
}

// WorkChunk is one schedulable unit of campaign work: one vantage VM and a
// contiguous target-index range, identified by its deterministic position in
// the campaign's chunk sequence. Chunks are the currency of both the local
// worker pool and the distributed dispatch layer — a chunk's traces are a
// pure function of (world, fault plan, policy, epoch, chunk), so any
// executor produces byte-identical results.
type WorkChunk struct {
	VM   VMRef `json:"vm"`
	From int   `json:"from"` // target index range [From, To)
	To   int   `json:"to"`
	// Index is the chunk's position in ChunkCampaign's sequence; results
	// merge in Index order and budget shares are assigned by it.
	Index int `json:"index"`
}

// Span names the chunk's deterministic label ("amazon/3:2048-3072").
func (c WorkChunk) Span() string { return fmt.Sprintf("%s:%d-%d", c.VM, c.From, c.To) }

// campaignChunk is the number of targets in one work chunk.
const campaignChunk = 1024

// ChunkCampaign splits a campaign (every VM × the target list) into its
// deterministic work chunks: VMs in order, target ranges of campaignChunk
// addresses each. The split depends only on the inputs, never on worker
// count or scheduling.
func ChunkCampaign(vms []VMRef, targets []netblock.IP) []WorkChunk {
	var chunks []WorkChunk
	for _, vm := range vms {
		for from := 0; from < len(targets); from += campaignChunk {
			to := from + campaignChunk
			if to > len(targets) {
				to = len(targets)
			}
			chunks = append(chunks, WorkChunk{VM: vm, From: from, To: to, Index: len(chunks)})
		}
	}
	return chunks
}

// ChunkRetryBudget computes chunk idx's share of a campaign retry budget
// split across n chunks: Budget/n, with the first Budget%n chunks taking
// one extra, so the total is exact and independent of execution order.
// A non-positive budget returns -1 (unlimited).
func ChunkRetryBudget(budget int64, n, idx int) int64 {
	if budget <= 0 || n <= 0 {
		return -1
	}
	share := budget / int64(n)
	if int64(idx) < budget%int64(n) {
		share++
	}
	return share
}

// RunChunkObs executes one work chunk: every target in order, with retries
// under pol and the chunk's retry-budget share (negative = unlimited). The
// targets slice holds exactly the chunk's targets (wc.From/wc.To label the
// chunk's position in the campaign; they do not index into targets). lane
// places the chunk span on a Chrome-trace lane; sp and prog may be nil.
// The returned traces and stats are deterministic — identical wherever and
// whenever the chunk runs. The traces' hops share a few per-chunk arena
// blocks, so a chunk costs a handful of allocations, not one per trace.
func (p *Prober) RunChunkObs(ctx context.Context, sp *obs.Span, prog *obs.Progress, wc WorkChunk, targets []netblock.IP, pol RetryPolicy, epoch uint64, budget int64, lane int) ([]Trace, CampaignStats, error) {
	return p.runChunk(ctx, sp, prog, wc, p.resolve(targets), pol, epoch, budget, lane, make([]Trace, 0, len(targets)))
}

// resolve resolves campaign targets into forwarder destinations, in order.
func (p *Prober) resolve(targets []netblock.IP) []route.Dest {
	dests := make([]route.Dest, len(targets))
	for i, dst := range targets {
		dests[i] = p.f.Dest(dst)
	}
	return dests
}

// runChunk is RunChunkObs over resolved destinations, appending the
// chunk's traces to out, an empty batch whose capacity it reuses.
func (p *Prober) runChunk(ctx context.Context, sp *obs.Span, prog *obs.Progress, wc WorkChunk, dests []route.Dest, pol RetryPolicy, epoch uint64, budget int64, lane int, out []Trace) ([]Trace, CampaignStats, error) {
	pol = pol.withDefaults()
	vm, err := p.vm(wc.VM)
	if err != nil {
		return nil, CampaignStats{}, err
	}
	vmKey := uint64(vm.Cloud)<<16 | uint64(vm.Region)
	var budgetPtr *int64
	if budget >= 0 {
		budgetPtr = &budget
	}
	// The chunk span's identity is (campaign span, chunk index) — pure
	// position, no scheduling dependence; the lane only places the span
	// in the Chrome trace so worker occupancy is visible.
	csp := sp.ChildLane("chunk", wc.Span(), uint64(wc.Index), lane)
	sc := p.tracers.Get().(*tracer)
	defer p.tracers.Put(sc)
	var cs CampaignStats
	var arena hopArena
	for _, d := range dests {
		if err := ctx.Err(); err != nil {
			csp.End(obs.Attrs{"status": "interrupted"})
			return nil, cs, fmt.Errorf("probe: campaign interrupted: %w", err)
		}
		status := p.traceRetry(csp, prog, sc, vm, vmKey, d, pol, epoch, budgetPtr, &cs)
		out = append(out, Trace{Src: wc.VM, Dst: d.IP, Status: status, Hops: arena.keep(sc.best)})
	}
	csp.End(chunkAttrs(cs))
	return out, cs, nil
}

// arenaBlock is the hop capacity of one hopArena block: a few dozen traces.
const arenaBlock = 4096

// hopArena hands out trace hop slices carved from shared blocks, the way
// the tracefile decoder fills a chunk's traces from one hop arena. Each
// slice is capacity-capped, so appending to one trace's hops reallocates
// instead of overwriting its neighbour's.
type hopArena struct{ block []Hop }

// keep copies hops into the arena and returns the arena-owned copy.
func (a *hopArena) keep(hops []Hop) []Hop {
	if cap(a.block)-len(a.block) < len(hops) {
		a.block = make([]Hop, 0, max(arenaBlock, len(hops)))
	}
	start := len(a.block)
	a.block = append(a.block, hops...)
	return a.block[start:len(a.block):len(a.block)]
}

// ChunkExecutor runs campaign chunks outside this process. For each chunk
// RunChunk either returns the chunk's traces and stats (ok), declines
// (!ok, nil error) so the campaign runs the chunk locally, or returns an
// error, which ends the campaign; errors are for cancellation only. targets
// holds exactly the chunk's targets and budget its retry-budget share
// (negative = unlimited). A chunk's result must be the one local execution
// would produce, so the executor cannot change what the campaign delivers.
type ChunkExecutor interface {
	RunChunk(ctx context.Context, sp *obs.Span, wc WorkChunk, targets []netblock.IP, pol RetryPolicy, epoch uint64, budget int64) (traces []Trace, stats CampaignStats, ok bool, err error)
}

// CampaignRetryObsCtx is CampaignRetryCtx with observability and an
// optional remote executor: each work chunk runs under a span (kind
// "chunk", keyed by the deterministic chunk index, placed on the Chrome
// lane of the worker that executed it), fault classifications and retry
// attempts become journal events on that span, and retries burn down
// prog's live retry-budget gauge. sp and prog may be nil (no-ops); the hot
// path then pays one nil check per probe. remote, when non-nil, is offered
// every chunk first; chunks it declines run locally. Nil runs every chunk
// locally.
//
// Targets are resolved once for every VM and retry attempt. Chunk trace
// batches cycle through a free list: ordered.Run keeps at most 2×workers
// chunks undelivered, so 3×workers batches cover the campaign. A batch is
// cleared after delivery, so a pooled batch never pins a hop arena; sinks
// get each Trace by value, so reusing the batch cannot change what they
// kept.
func (p *Prober) CampaignRetryObsCtx(ctx context.Context, sp *obs.Span, prog *obs.Progress, remote ChunkExecutor, vms []VMRef, targets []netblock.IP, workers int, pol RetryPolicy, epoch uint64, sink TraceSink) (CampaignStats, error) {
	pol = pol.withDefaults()
	chunks := ChunkCampaign(vms, targets)
	dests := p.resolve(targets)
	free := make(chan []Trace, 3*max(workers, 1))
	type result struct {
		traces []Trace
		stats  CampaignStats
	}
	var total CampaignStats
	err := ordered.Run(ctx, len(chunks), workers, func(i, lane int) (result, error) {
		c := chunks[i]
		share := ChunkRetryBudget(pol.Budget, len(chunks), i)
		if remote != nil {
			traces, cs, ok, err := remote.RunChunk(ctx, sp, c, targets[c.From:c.To], pol, epoch, share)
			if err != nil || ok {
				return result{traces, cs}, err
			}
		}
		var batch []Trace
		select {
		case batch = <-free:
		default:
			batch = make([]Trace, 0, campaignChunk)
		}
		traces, cs, err := p.runChunk(ctx, sp, prog, c, dests[c.From:c.To], pol, epoch, share, lane, batch)
		return result{traces, cs}, err
	}, func(_ int, r result) error {
		total.Merge(r.stats)
		for _, tr := range r.traces {
			sink(tr)
		}
		clear(r.traces)
		select {
		case free <- r.traces[:0]:
		default:
		}
		return nil
	})
	return total, err
}
