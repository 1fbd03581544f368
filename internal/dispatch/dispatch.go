// Package dispatch is the distributed execution layer of the probing
// campaigns: a controller that turns campaign chunks into CRC-framed work
// leases handed to remote probe agents (cmd/cloudmapagent) over a small
// HTTP/JSON protocol, and the agent server that executes them. The
// controller is a probe.ChunkExecutor: it runs no campaign loop of its own
// but acts on the single chunks probe.CampaignRetryObsCtx offers it.
//
// The design leans on one property the rest of the repository already
// guarantees: a campaign chunk is a pure function of (world seed, fault
// plan, retry policy, epoch, chunk identity). Any process that builds the
// same world computes byte-identical traces for the same chunk, so the
// controller is free to lease a chunk to whichever agent is alive, lease it
// twice when one agent straggles, or decline it so the campaign runs it
// locally — the merged result cannot change. The campaign driver computes
// each chunk's retry-budget share and merges chunks in campaign-chunk
// order whoever executed them, so reports stay byte-identical at any agent
// count, worker count, or failure schedule.
//
// Fault tolerance, concretely:
//
//   - heartbeats: the controller health-polls every agent; consecutive
//     failures mark it lost (service.agents_lost) and an agent that stalls
//     past a lease deadline goes to the penalty box until it answers a few
//     heartbeats in a row;
//   - per-lease deadlines: a lease that exceeds LeaseTimeout expires
//     (service.leases_expired) and the chunk re-dispatches with exponential
//     backoff to the next live agent;
//   - straggler hedging: once enough lease durations are observed, a lease
//     outliving the p95 tail is duplicated to a second agent
//     (service.chunks_rehedged); the first valid result wins and the
//     duplicate is discarded — trivially deterministic, both copies are
//     byte-identical;
//   - graceful degradation: a chunk that exhausts its remote attempts, or
//     finds no live agent, is declined and runs locally in the controller
//     process. A distributed run never fails because agents misbehave.
//
// Work leases are integrity-framed end to end: the lease carries a CRC32
// over its packed target list (agents refuse corrupted leases), and results
// stream back as one complete binary tracefile v2 per chunk, whose own
// CRC-framed chunks and completeness trailer the controller verifies before
// accepting the lease. The reply is outside input, so the controller also
// checks every trace against the lease: the chunk's VM as source and the
// leased target at that position as destination.
package dispatch

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"cloudmap/internal/faults"
	"cloudmap/internal/topo"
)

// Fingerprint hashes everything probing depends on — the topology config
// and the fault plan — into the guard both sides of the lease protocol
// compare. An agent built from a different world would compute different
// traces for the same lease; the fingerprint turns that silent corruption
// into a refused lease (HTTP 409). Retry policy, budget, and targets are
// per-lease inputs, so they stay out of the fingerprint.
func Fingerprint(topoCfg topo.Config, plan *faults.Plan) string {
	tj, err := json.Marshal(topoCfg)
	if err != nil {
		panic(fmt.Sprintf("dispatch: topology config not marshallable: %v", err)) // plain-data struct; unreachable
	}
	pj, err := json.Marshal(plan) // "null" for nil
	if err != nil {
		panic(fmt.Sprintf("dispatch: fault plan not marshallable: %v", err)) // plain-data struct; unreachable
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("topo=%s|faults=%s", tj, pj)))
	return hex.EncodeToString(sum[:8])
}
