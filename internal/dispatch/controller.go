package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cloudmap/internal/metrics"
	"cloudmap/internal/netblock"
	"cloudmap/internal/obs"
	"cloudmap/internal/probe"
	"cloudmap/internal/tracefile"
)

// Options tunes the dispatch controller.
type Options struct {
	// Agents lists the agent base URLs (http://host:port). Empty means
	// every campaign runs locally.
	Agents []string
	// LeaseTimeout is the per-lease deadline; an expired lease counts as
	// failed and the chunk re-dispatches. Defaults to 60s.
	LeaseTimeout time.Duration
	// RetryBackoff is the pause before a chunk's second dispatch attempt,
	// doubling per further attempt. Defaults to 200ms.
	RetryBackoff time.Duration
	// Heartbeat is the agent health-poll interval. Defaults to 1s.
	Heartbeat time.Duration
	// Metrics receives the lease counters, named <MetricsPrefix>.leases_granted,
	// .leases_expired, .chunks_rehedged, .agents_lost, .chunks_local, and
	// .lease_failures, plus the fleet lease-RTT histogram .lease_rtt_ms and
	// per-agent series under <MetricsPrefix>.agent.<id>.*. Nil creates a
	// private registry.
	Metrics *metrics.Registry
	// MetricsPrefix defaults to "dispatch"; the daemon installs "service".
	MetricsPrefix string
	// Log receives lease lifecycle events; nil discards.
	Log *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 60 * time.Second
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 200 * time.Millisecond
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = time.Second
	}
	if o.Metrics == nil {
		o.Metrics = metrics.NewRegistry()
	}
	if o.MetricsPrefix == "" {
		o.MetricsPrefix = "dispatch"
	}
	o.Log = orDiscard(o.Log).With("component", "dispatch")
	return o
}

// orDiscard is the nil-logger default of NewController and NewAgent.
func orDiscard(l *slog.Logger) *slog.Logger {
	if l == nil {
		return slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	return l
}

// healthResurrect is how many consecutive heartbeat successes bring a lost
// agent back; downMark how many consecutive failures take a live one out.
// healthTimeoutFloor bounds the health-poll deadline from below: a fast
// heartbeat cadence must not imply a hair-trigger timeout, or an agent
// merely busy executing leases gets marked lost on scheduling noise.
const (
	healthResurrect    = 3
	downMark           = 2
	healthTimeoutFloor = time.Second
)

// Lease scheduling: maxAttempts bounds remote dispatch attempts per chunk
// before the chunk runs locally. A lease that outlives hedgeFactor × the
// p95 of recent lease durations, floored at hedgeMin so fast campaigns do
// not hedge on noise, is duplicated to a second agent; hedging arms once
// hedgeMinSamples leases have completed.
const (
	maxAttempts     = 3
	hedgeFactor     = 2
	hedgeMin        = 250 * time.Millisecond
	hedgeMinSamples = 8
)

// agentMetrics is one agent's per-agent series on the controller registry,
// created lazily once the agent's ID is known from its first heartbeat.
type agentMetrics struct {
	up, inflight, traces, retries, faults, leases *metrics.Gauge
	rtt                                           *metrics.Histogram
}

// agentState is the controller's view of one agent.
type agentState struct {
	url      string
	live     atomic.Bool
	inflight atomic.Int64
	fails    atomic.Int64 // consecutive health failures
	oks      atomic.Int64 // consecutive health successes while down
	needOK   atomic.Int64 // successes required to (re)join; 1 initially, healthResurrect after a loss
	granted  atomic.Int64 // leases dispatched to this agent
	expired  atomic.Int64 // leases that blew the deadline on this agent
	hedged   atomic.Int64 // leases hedged away because this agent straggled

	mu       sync.Mutex
	id       string     // agent's self-reported ID (from heartbeats)
	lastBeat time.Time  // last successful heartbeat
	stats    AgentStats // latest self-report (heartbeat or lease response)
	tpsStats AgentStats // stats at lastBeat, for throughput deltas
	tps      float64    // traces/sec between the last two heartbeats
	m        *agentMetrics
}

// Stats is a snapshot of the controller's dispatch telemetry.
type Stats struct {
	LeasesGranted  int64 // leases issued (including hedges and retries)
	LeasesExpired  int64 // leases that exceeded the deadline
	ChunksRehedged int64 // chunks duplicate-dispatched against stragglers
	AgentsLost     int64 // live→lost transitions
	ChunksLocal    int64 // chunks executed locally (fallback)
	LeaseFailures  int64 // failed leases (transport, refusal, bad frame)
}

// AgentInfo is one agent's row in the fleet health document.
type AgentInfo struct {
	URL string `json:"url"`
	ID  string `json:"id,omitempty"`
	// State is "healthy" (in rotation), "penalty-box" (lost, heartbeating
	// again, not yet trusted), or "lost".
	State            string `json:"state"`
	ConsecutiveFails int64  `json:"consecutive_fails"`
	// LastHeartbeatMS is the age of the last successful heartbeat in
	// milliseconds; -1 means the agent has never answered.
	LastHeartbeatMS int64      `json:"last_heartbeat_ms"`
	Inflight        int64      `json:"inflight"`
	LeasesGranted   int64      `json:"leases_granted"`
	LeasesExpired   int64      `json:"leases_expired"`
	LeasesHedged    int64      `json:"leases_hedged"`
	ThroughputTPS   float64    `json:"throughput_tps"`
	Stats           AgentStats `json:"stats"`
}

// Fleet is the live fleet-health snapshot served at /v1/fleet.
type Fleet struct {
	Agents []AgentInfo `json:"agents"`
	Stats  Stats       `json:"stats"`
}

// Controller leases campaign chunks to remote agents: it is the
// probe.ChunkExecutor a campaign offers each chunk. One controller serves
// many campaigns (the daemon's epochs); Close stops its heartbeat loop.
type Controller struct {
	opts        Options
	fingerprint string
	client      *http.Client
	agents      []*agentState

	cGranted  *metrics.Counter
	cExpired  *metrics.Counter
	cRehedged *metrics.Counter
	cLost     *metrics.Counter
	cLocal    *metrics.Counter
	cFailed   *metrics.Counter
	hRTT      *metrics.Histogram

	leaseSeq atomic.Int64
	// fleetDown is set when a chunk finds no live agent and cleared when
	// one turns live, so a dead fleet logs once, not once per chunk.
	fleetDown atomic.Bool

	durMu sync.Mutex
	durs  []time.Duration // recent lease durations (hedge-delay estimator)

	startOnce sync.Once
	closeOnce sync.Once
	closed    chan struct{}
	hbDone    chan struct{}
}

// NewController builds a controller for the given agent set. fingerprint is
// the probing-world guard every lease carries (see Fingerprint). Heartbeats
// start lazily on the first chunk offered to RunChunk.
func NewController(opts Options, fingerprint string) *Controller {
	opts = opts.withDefaults()
	c := &Controller{
		opts:        opts,
		fingerprint: fingerprint,
		client:      &http.Client{},
		closed:      make(chan struct{}),
		hbDone:      make(chan struct{}),

		cGranted:  opts.Metrics.Counter(opts.MetricsPrefix + ".leases_granted"),
		cExpired:  opts.Metrics.Counter(opts.MetricsPrefix + ".leases_expired"),
		cRehedged: opts.Metrics.Counter(opts.MetricsPrefix + ".chunks_rehedged"),
		cLost:     opts.Metrics.Counter(opts.MetricsPrefix + ".agents_lost"),
		cLocal:    opts.Metrics.Counter(opts.MetricsPrefix + ".chunks_local"),
		cFailed:   opts.Metrics.Counter(opts.MetricsPrefix + ".lease_failures"),
		hRTT:      opts.Metrics.Histogram(opts.MetricsPrefix + ".lease_rtt_ms"),
	}
	for _, u := range opts.Agents {
		a := &agentState{url: u}
		a.needOK.Store(1)
		c.agents = append(c.agents, a)
	}
	return c
}

// Stats snapshots the dispatch counters.
func (c *Controller) Stats() Stats {
	return Stats{
		LeasesGranted:  c.cGranted.Value(),
		LeasesExpired:  c.cExpired.Value(),
		ChunksRehedged: c.cRehedged.Value(),
		AgentsLost:     c.cLost.Value(),
		ChunksLocal:    c.cLocal.Value(),
		LeaseFailures:  c.cFailed.Value(),
	}
}

// Fleet snapshots per-agent health for the fleet API: liveness state,
// heartbeat age, lease accounting, the agent's own telemetry self-report,
// and its recent probing throughput.
func (c *Controller) Fleet() Fleet {
	now := time.Now()
	f := Fleet{Stats: c.Stats(), Agents: make([]AgentInfo, 0, len(c.agents))}
	for _, a := range c.agents {
		info := AgentInfo{
			URL:              a.url,
			ConsecutiveFails: a.fails.Load(),
			Inflight:         a.inflight.Load(),
			LeasesGranted:    a.granted.Load(),
			LeasesExpired:    a.expired.Load(),
			LeasesHedged:     a.hedged.Load(),
		}
		a.mu.Lock()
		info.ID = a.id
		info.Stats = a.stats
		info.ThroughputTPS = a.tps
		if a.lastBeat.IsZero() {
			info.LastHeartbeatMS = -1
		} else {
			info.LastHeartbeatMS = now.Sub(a.lastBeat).Milliseconds()
		}
		a.mu.Unlock()
		switch {
		case a.live.Load():
			info.State = "healthy"
		case a.oks.Load() > 0:
			info.State = "penalty-box"
		default:
			info.State = "lost"
		}
		f.Agents = append(f.Agents, info)
	}
	return f
}

// LiveAgents counts agents currently considered healthy.
func (c *Controller) LiveAgents() int {
	n := 0
	for _, a := range c.agents {
		if a.live.Load() {
			n++
		}
	}
	return n
}

// Close stops the heartbeat loop. Safe to call repeatedly; campaigns in
// flight finish their current leases.
func (c *Controller) Close() {
	c.closeOnce.Do(func() { close(c.closed) })
	c.startOnce.Do(func() { close(c.hbDone) }) // never started: nothing to wait for
	<-c.hbDone
}

// start runs the initial synchronous health sweep (so the first campaign
// sees accurate liveness) and launches the heartbeat loop.
func (c *Controller) start() {
	c.sweep()
	go func() {
		defer close(c.hbDone)
		t := time.NewTicker(c.opts.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-c.closed:
				return
			case <-t.C:
				c.sweep()
			}
		}
	}()
}

// sweep health-polls every agent once, updating liveness and telemetry.
func (c *Controller) sweep() {
	var wg sync.WaitGroup
	for _, a := range c.agents {
		wg.Add(1)
		go func(a *agentState) {
			defer wg.Done()
			if h, ok := c.checkHealth(a); ok {
				c.noteHealth(a, h)
				a.fails.Store(0)
				if !a.live.Load() && a.oks.Add(1) >= a.needOK.Load() {
					a.live.Store(true)
					c.fleetDown.Store(false)
					c.opts.Log.Info("agent live", "agent", a.url, "id", h.ID)
				}
			} else {
				a.oks.Store(0)
				// The failure streak counts even while the agent is down —
				// the fleet document reports it as consecutive_fails.
				if a.fails.Add(1) >= downMark && a.live.Load() {
					c.markDown(a, "heartbeat failures")
				}
			}
		}(a)
	}
	wg.Wait()
}

func (c *Controller) checkHealth(a *agentState) (Health, bool) {
	to := 2 * c.opts.Heartbeat
	if to < healthTimeoutFloor {
		to = healthTimeoutFloor
	}
	ctx, cancel := context.WithTimeout(context.Background(), to)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, a.url+healthPath, nil)
	if err != nil {
		return Health{}, false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return Health{}, false
	}
	defer resp.Body.Close()
	var h Health
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil {
		return Health{}, false
	}
	if h.Fingerprint != c.fingerprint {
		// A live process probing a different world is worse than a dead
		// one; keep it out of the rotation permanently.
		return Health{}, false
	}
	return h, true
}

// noteHealth folds one successful heartbeat into the agent's telemetry view:
// identity, last-seen time, self-reported stats, the heartbeat-to-heartbeat
// throughput estimate, and the per-agent gauge series.
func (c *Controller) noteHealth(a *agentState, h Health) {
	now := time.Now()
	a.mu.Lock()
	a.id = h.ID
	if !a.lastBeat.IsZero() {
		if dt := now.Sub(a.lastBeat).Seconds(); dt > 0 {
			a.tps = float64(h.Stats.TracesProbed-a.tpsStats.TracesProbed) / dt
		}
	}
	a.lastBeat = now
	a.tpsStats = h.Stats
	a.stats = h.Stats
	m := c.ensureAgentMetricsLocked(a)
	a.mu.Unlock()
	if m != nil {
		m.up.Set(1)
		setAgentGauges(m, h.Stats)
	}
}

// noteStats folds a lease response's stats self-report into the agent view
// (heartbeat timing and throughput are left to noteHealth).
func (c *Controller) noteStats(a *agentState, s AgentStats) {
	a.mu.Lock()
	a.stats = s
	m := c.ensureAgentMetricsLocked(a)
	a.mu.Unlock()
	if m != nil {
		setAgentGauges(m, s)
	}
}

// ensureAgentMetricsLocked lazily creates the agent's per-agent series once
// its self-reported ID is known. Caller holds a.mu.
func (c *Controller) ensureAgentMetricsLocked(a *agentState) *agentMetrics {
	if a.m == nil && a.id != "" {
		p := c.opts.MetricsPrefix + ".agent." + a.id + "."
		a.m = &agentMetrics{
			up:       c.opts.Metrics.Gauge(p + "up"),
			inflight: c.opts.Metrics.Gauge(p + "inflight"),
			traces:   c.opts.Metrics.Gauge(p + "traces_probed"),
			retries:  c.opts.Metrics.Gauge(p + "retries"),
			faults:   c.opts.Metrics.Gauge(p + "faults"),
			leases:   c.opts.Metrics.Gauge(p + "leases_done"),
			rtt:      c.opts.Metrics.Histogram(p + "lease_rtt_ms"),
		}
	}
	return a.m
}

func setAgentGauges(m *agentMetrics, s AgentStats) {
	m.inflight.Set(float64(s.Inflight))
	m.traces.Set(float64(s.TracesProbed))
	m.retries.Set(float64(s.Retries))
	m.faults.Set(float64(s.Faults()))
	m.leases.Set(float64(s.LeasesDone))
}

// markDown transitions an agent to lost (idempotent) and raises the bar for
// its return to a few consecutive healthy heartbeats.
func (c *Controller) markDown(a *agentState, reason string) {
	if a.live.CompareAndSwap(true, false) {
		a.oks.Store(0)
		a.needOK.Store(healthResurrect)
		c.cLost.Inc()
		c.opts.Log.Warn("agent lost", "agent", a.url, "reason", reason)
		a.mu.Lock()
		m := a.m
		a.mu.Unlock()
		if m != nil {
			m.up.Set(0)
		}
	}
}

// pickAgent selects the least-loaded live agent, skipping except; nil when
// none is live.
func (c *Controller) pickAgent(except *agentState) *agentState {
	var best *agentState
	var bestLoad int64
	for _, a := range c.agents {
		if a == except || !a.live.Load() {
			continue
		}
		load := a.inflight.Load()
		if best == nil || load < bestLoad {
			best, bestLoad = a, load
		}
	}
	return best
}

// observeDuration records a completed lease's wall time for the hedge-delay
// estimator (bounded window of recent samples) and the RTT histograms.
func (c *Controller) observeDuration(a *agentState, d time.Duration) {
	c.hRTT.Observe(d.Milliseconds())
	a.mu.Lock()
	m := a.m
	a.mu.Unlock()
	if m != nil {
		m.rtt.Observe(d.Milliseconds())
	}
	c.durMu.Lock()
	defer c.durMu.Unlock()
	if len(c.durs) >= 256 {
		copy(c.durs, c.durs[1:])
		c.durs = c.durs[:len(c.durs)-1]
	}
	c.durs = append(c.durs, d)
}

// hedgeDelay returns how long a lease may run before a duplicate dispatches:
// hedgeFactor × the observed p95, floored at hedgeMin. Hedging stays
// disarmed (ok=false) until hedgeMinSamples leases have completed.
func (c *Controller) hedgeDelay() (time.Duration, bool) {
	c.durMu.Lock()
	defer c.durMu.Unlock()
	if len(c.durs) < hedgeMinSamples {
		return 0, false
	}
	sorted := append([]time.Duration(nil), c.durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p95 := sorted[len(sorted)*95/100]
	d := time.Duration(float64(p95) * hedgeFactor)
	if d < hedgeMin {
		d = hedgeMin
	}
	return d, true
}

// RunChunk leases one chunk to the fleet, with deadline, hedging, and
// exponential-backoff re-dispatch, up to maxAttempts times. It declines
// (ok=false) when no agent is live or every attempt failed, and the
// campaign then runs the chunk locally; agent trouble never fails the
// campaign, only cancellation does.
//
// Only the winning lease's captured spans import into the journal — retries
// and hedge losers are wall-clock accidents, and journaling them would make
// the journal schedule-dependent. They surface in logs and metrics instead.
func (c *Controller) RunChunk(ctx context.Context, sp *obs.Span, wc probe.WorkChunk, targets []netblock.IP, pol probe.RetryPolicy, epoch uint64, budget int64) ([]probe.Trace, probe.CampaignStats, bool, error) {
	c.startOnce.Do(c.start)
	backoff := c.opts.RetryBackoff
	attempt := 1
	for ; attempt <= maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, probe.CampaignStats{}, false, fmt.Errorf("dispatch: campaign interrupted: %w", err)
		}
		ag := c.pickAgent(nil)
		if ag == nil {
			break
		}
		traces, cs, spans, err := c.leaseHedged(ctx, sp, ag, wc, targets, pol, budget, epoch)
		if err == nil {
			sp.Import(spans)
			return traces, cs, true, nil
		}
		if ctx.Err() != nil {
			return nil, probe.CampaignStats{}, false, fmt.Errorf("dispatch: campaign interrupted: %w", ctx.Err())
		}
		c.opts.Log.Info("redispatching chunk", "chunk", wc.Index, "attempt", attempt, "max", maxAttempts, "err", err)
		if attempt < maxAttempts {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, probe.CampaignStats{}, false, fmt.Errorf("dispatch: campaign interrupted: %w", ctx.Err())
			}
			backoff *= 2
		}
	}
	// Graceful degradation: the fleet could not finish this chunk; the
	// local engine produces the identical bytes.
	c.cLocal.Inc()
	if attempt > 1 {
		c.opts.Log.Info("chunk running locally", "chunk", wc.Index)
	} else if c.fleetDown.CompareAndSwap(false, true) {
		c.opts.Log.Info("no live agents", "fallback", "local")
	}
	return nil, probe.CampaignStats{}, false, nil
}

// leaseHedged issues one lease, arming a straggler hedge: if the lease
// outlives the hedge delay and another live agent is free, a duplicate
// dispatches and the first valid result wins. Both executions are
// deterministic, so discarding the loser cannot change the output.
func (c *Controller) leaseHedged(ctx context.Context, sp *obs.Span, ag *agentState, wc probe.WorkChunk, targets []netblock.IP, pol probe.RetryPolicy, budget int64, epoch uint64) ([]probe.Trace, probe.CampaignStats, *obs.JournalEvents, error) {
	span := ""
	if sp != nil {
		span = sp.ID().String()
	}
	type res struct {
		traces []probe.Trace
		stats  probe.CampaignStats
		spans  *obs.JournalEvents
		agent  *agentState
		err    error
		dur    time.Duration
	}
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan res, 2)
	launch := func(a *agentState) {
		go func() {
			start := time.Now()
			traces, stats, spans, err := c.lease(lctx, a, span, wc, targets, pol, budget, epoch)
			ch <- res{traces, stats, spans, a, err, time.Since(start)}
		}()
	}
	launch(ag)
	outstanding := 1

	var hedgeC <-chan time.Time
	if d, ok := c.hedgeDelay(); ok {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}
	var firstErr error
	for outstanding > 0 {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				c.observeDuration(r.agent, r.dur)
				return r.traces, r.stats, r.spans, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
		case <-hedgeC:
			hedgeC = nil
			if alt := c.pickAgent(ag); alt != nil {
				c.cRehedged.Inc()
				ag.hedged.Add(1)
				c.opts.Log.Info("hedging chunk", "chunk", wc.Index, "straggler", ag.url, "to", alt.url)
				launch(alt)
				outstanding++
			}
		case <-ctx.Done():
			// In-flight goroutines drain into the buffered channel.
			return nil, probe.CampaignStats{}, nil, fmt.Errorf("dispatch: campaign interrupted: %w", ctx.Err())
		}
	}
	return nil, probe.CampaignStats{}, nil, firstErr
}

// lease executes one lease RPC against one agent under the lease deadline,
// verifying the returned tracefile frame end to end and decoding the
// agent's captured spans and telemetry self-report.
func (c *Controller) lease(ctx context.Context, a *agentState, span string, wc probe.WorkChunk, targets []netblock.IP, pol probe.RetryPolicy, budget int64, epoch uint64) ([]probe.Trace, probe.CampaignStats, *obs.JournalEvents, error) {
	lease := Lease{
		ID:          fmt.Sprintf("l%06d", c.leaseSeq.Add(1)),
		Fingerprint: c.fingerprint,
		Chunk:       wc,
		Targets:     targets,
		TargetsCRC:  TargetsCRC(targets),
		Retry:       pol,
		Budget:      budget,
		Epoch:       epoch,
		Span:        span,
	}
	body, err := json.Marshal(lease)
	if err != nil {
		return nil, probe.CampaignStats{}, nil, fmt.Errorf("dispatch: lease encode: %w", err)
	}
	lctx, cancel := context.WithTimeout(ctx, c.opts.LeaseTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(lctx, http.MethodPost, a.url+leasePath, bytes.NewReader(body))
	if err != nil {
		return nil, probe.CampaignStats{}, nil, fmt.Errorf("dispatch: lease request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")

	a.inflight.Add(1)
	defer a.inflight.Add(-1)
	c.cGranted.Inc()
	a.granted.Add(1)
	resp, err := c.client.Do(req)
	if err != nil {
		c.cFailed.Inc()
		if lctx.Err() != nil && ctx.Err() == nil {
			// The lease deadline (not the campaign) expired: the agent
			// straggled past its lease. Bench it until it proves healthy.
			c.cExpired.Inc()
			a.expired.Add(1)
			c.markDown(a, "lease deadline exceeded")
			return nil, probe.CampaignStats{}, nil, fmt.Errorf("dispatch: lease %s expired on %s after %s", lease.ID, a.url, c.opts.LeaseTimeout)
		}
		// Transport failure: the agent is gone (crashed, partitioned).
		c.markDown(a, "lease transport error")
		return nil, probe.CampaignStats{}, nil, fmt.Errorf("dispatch: lease %s on %s: %w", lease.ID, a.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.cFailed.Inc()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		if resp.StatusCode == http.StatusConflict {
			// World mismatch: this agent can never serve us.
			c.markDown(a, "fingerprint mismatch")
		}
		return nil, probe.CampaignStats{}, nil, fmt.Errorf("dispatch: lease %s refused by %s: %s (%s)", lease.ID, a.url, resp.Status, bytes.TrimSpace(msg))
	}

	// The agent answered, but a reply that fails validation comes from a
	// broken or forging agent: bench it like a lost one so later chunks stop
	// spending their attempts on it (healthy heartbeats re-admit it).
	invalid := func(err error) ([]probe.Trace, probe.CampaignStats, *obs.JournalEvents, error) {
		c.cFailed.Inc()
		c.markDown(a, "invalid lease reply")
		return nil, probe.CampaignStats{}, nil, err
	}
	var stats probe.CampaignStats
	if err := json.Unmarshal([]byte(resp.Header.Get(hdrStats)), &stats); err != nil {
		return invalid(fmt.Errorf("dispatch: lease %s stats frame: %w", lease.ID, err))
	}
	if s := resp.Header.Get(hdrAgentStats); s != "" {
		var ast AgentStats
		if json.Unmarshal([]byte(s), &ast) == nil {
			c.noteStats(a, ast)
		}
	}
	spans, err := obs.DecodeJournal(resp.Header.Get(hdrSpans))
	if err != nil {
		// A corrupt span frame means the result cannot splice into the
		// journal; treat the lease as failed so the chunk re-executes.
		return invalid(fmt.Errorf("dispatch: lease %s span frame: %w", lease.ID, err))
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		c.cFailed.Inc()
		c.markDown(a, "lease transport error")
		return nil, probe.CampaignStats{}, nil, fmt.Errorf("dispatch: lease %s body: %w", lease.ID, err)
	}
	traces := make([]probe.Trace, 0, len(targets))
	sum, err := tracefile.Replay(bytes.NewReader(payload), func(tr probe.Trace) { traces = append(traces, tr) })
	if err != nil {
		return invalid(fmt.Errorf("dispatch: lease %s result frame: %w", lease.ID, err))
	}
	if !sum.Complete || len(traces) != len(targets) {
		return invalid(fmt.Errorf("dispatch: lease %s returned %d/%d traces (complete=%v)", lease.ID, len(traces), len(targets), sum.Complete))
	}
	// The reply is outside input: a well-framed result for the wrong
	// vantage or targets must not reach the sink.
	for i, tr := range traces {
		if tr.Src != wc.VM || tr.Dst != targets[i] {
			return invalid(fmt.Errorf("dispatch: lease %s trace %d is %s→%s, want %s→%s", lease.ID, i, tr.Src, tr.Dst, wc.VM, targets[i]))
		}
	}
	return traces, stats, spans, nil
}
