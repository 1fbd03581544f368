package probe

import (
	"math"

	"cloudmap/internal/model"
	"cloudmap/internal/netblock"
	"cloudmap/internal/route"
)

// pingInfo caches the reachability essentials of a (vm, addr) pair so that
// ping and alias campaigns (which revisit the same targets many times) do
// not recompute paths.
type pingInfo struct {
	ok    bool
	iface model.IfaceID
	rtt   float64
}

type pingKey struct {
	cloud  model.CloudID
	region int16
	addr   netblock.IP
}

func (p *Prober) pathInfo(vm route.VM, addr netblock.IP) pingInfo {
	key := pingKey{vm.Cloud, int16(vm.Region), addr}
	p.cacheMu.Lock()
	if info, ok := p.pingCache[key]; ok {
		p.cacheMu.Unlock()
		return info
	}
	p.cacheMu.Unlock()
	// Compute outside the lock: path computation is pure, and a duplicate
	// computation under contention yields the identical value. The path
	// lives in pooled tracer scratch; only its destination fields are kept.
	sc := p.tracers.Get().(*tracer)
	p.f.TraceInto(&sc.path, vm, p.f.Dest(addr), 0)
	info := pingInfo{ok: sc.path.DstResponds, iface: sc.path.DstIface, rtt: sc.path.DstRTT}
	p.tracers.Put(sc)
	p.cacheMu.Lock()
	if p.pingCache == nil {
		p.pingCache = make(map[pingKey]pingInfo)
	}
	p.pingCache[key] = info
	p.cacheMu.Unlock()
	return info
}

// AliasProbeAt samples the IP-ID counter of addr from the VM at virtual time
// tSec. It returns ok=false when the target is unreachable or does not
// answer alias probes. This is the primitive MIDAR's Monotonic Bounds Test
// is built on (§5.2).
func (p *Prober) AliasProbeAt(ref VMRef, addr netblock.IP, tSec float64) (uint16, bool) {
	vm, err := p.vm(ref)
	if err != nil {
		return 0, false
	}
	info := p.pathInfo(vm, addr)
	if !info.ok || info.iface == model.NoIface {
		return 0, false
	}
	router := p.t.IfaceRouter(info.iface)
	as := &p.t.ASes[router.AS]
	// Per-probe loss.
	h := p.hash(uint64(addr), math.Float64bits(tSec), 0x5555)
	if unit(h) >= as.RespProb {
		return 0, false
	}
	switch router.IPID {
	case model.IPIDShared:
		// One monotonically increasing counter per router, advanced by its
		// background traffic; our probe contributes one increment plus a
		// little cross-traffic noise.
		noise := uint32(h % 3)
		id := router.IPIDBase + uint32(router.IPIDRate*tSec) + noise
		return uint16(id), true
	case model.IPIDPerInterface:
		// Independent counter per interface: monotone on its own, but
		// offset from its siblings, so the MBT rejects cross-interface
		// merges.
		base := router.IPIDBase ^ uint32(info.iface)*2654435761
		id := base + uint32(router.IPIDRate*tSec)
		return uint16(id), true
	case model.IPIDRandom:
		return uint16(p.hash(uint64(addr), math.Float64bits(tSec), 0x6666)), true
	default: // IPIDZero
		return 0, true
	}
}
