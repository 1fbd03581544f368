package probe

import (
	"sort"

	"cloudmap/internal/model"
	"cloudmap/internal/netblock"
)

// Round1Options tunes target enumeration for the first probing round.
type Round1Options struct {
	// IncludePrivate adds 10.0.0.0/8 and 100.64.0.0/10 targets; the paper
	// deliberately probes private and shared space because cloud providers
	// use it internally (§3).
	IncludePrivate bool
}

// Round1Targets enumerates the .1 address of every /24 in delegated address
// space (plus IXP LANs, plus optionally private/shared space). This is the
// simulator's stand-in for "every /24 of the IPv4 space": space outside any
// delegation can never produce a responsive hop, so probing it would only
// burn cycles in both the real and the simulated campaign.
func Round1Targets(t *model.Topology, opts Round1Options) []netblock.IP {
	seen := make(map[netblock.IP]struct{}, 1<<18)
	add := func(p netblock.Prefix) {
		for _, s := range p.Slash24s() {
			seen[s.Addr+1] = struct{}{}
		}
	}
	t.Ownership.Walk(func(p netblock.Prefix, _ int32) bool {
		add(p)
		return true
	})
	for i := range t.IXPs {
		add(t.IXPs[i].Prefix)
	}
	if opts.IncludePrivate {
		add(netblock.MustParsePrefix("10.0.0.0/8"))
		add(netblock.MustParsePrefix("100.64.0.0/10"))
	}
	out := make([]netblock.IP, 0, len(seen))
	for ip := range seen {
		out = append(out, ip)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ExpansionTargets enumerates every other address in the /24 of each given
// interface (§4.2's expansion probing): addresses in those prefixes have a
// far better chance of being allocated to border interfaces than the rest of
// the space.
func ExpansionTargets(cbis []netblock.IP) []netblock.IP {
	exclude := make(map[netblock.IP]struct{}, len(cbis))
	prefixes := make(map[netblock.IP]struct{})
	for _, ip := range cbis {
		exclude[ip] = struct{}{}
		prefixes[netblock.Slash24(ip).Addr] = struct{}{}
	}
	var out []netblock.IP
	for base := range prefixes {
		for off := netblock.IP(1); off <= 254; off++ {
			ip := base + off
			if _, skip := exclude[ip]; skip {
				continue
			}
			out = append(out, ip)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TraceSink consumes traceroutes as they are produced; campaigns stream
// rather than accumulate (the paper's round 1 produces hundreds of millions
// of hops). A sink receives each Trace by value and may keep it: its Hops
// stay valid after the sink returns, because hop arenas are never
// recycled. The hops are shared with neighbouring traces, so a sink must
// not write through them.
type TraceSink func(Trace)

// Campaign probes every target from every VM, serially and with the fault
// clock at zero, and streams results to sink. The probing rounds use
// CampaignRetryObsCtx, which adds workers, retries and cancellation.
func (p *Prober) Campaign(vms []VMRef, targets []netblock.IP, sink TraceSink) error {
	for _, vm := range vms {
		for _, dst := range targets {
			tr, err := p.Traceroute(vm, dst)
			if err != nil {
				return err
			}
			sink(tr)
		}
	}
	return nil
}
