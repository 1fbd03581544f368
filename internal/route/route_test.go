package route

import (
	"reflect"
	"sync"
	"testing"

	"cloudmap/internal/model"
	"cloudmap/internal/netblock"
	"cloudmap/internal/topo"
)

func genTopo(t testing.TB) (*model.Topology, *Forwarder) {
	t.Helper()
	cfg := topo.SmallConfig()
	tp, err := topo.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tp, NewForwarder(tp)
}

func amazonVMs(tp *model.Topology) []VM {
	amazon := tp.Amazon()
	vms := make([]VM, len(amazon.Regions))
	for i := range amazon.Regions {
		vms[i] = VM{Cloud: amazon.ID, Region: i}
	}
	return vms
}

func TestTraceCrossesPeeringLink(t *testing.T) {
	tp, f := genTopo(t)
	amazon := tp.Amazon()
	// For every Amazon peering, a trace to the peer's service space from
	// the peering's home region must exit Amazon through some peering.
	crossed := 0
	for i := range tp.Peerings {
		p := &tp.Peerings[i]
		if p.Cloud != amazon.ID {
			continue
		}
		as := &tp.ASes[p.Peer]
		if len(as.ServicePrefixes) == 0 {
			continue
		}
		dst := as.ServicePrefixes[0].Addr + 1
		path := f.Trace(VM{Cloud: amazon.ID, Region: p.RegionIdx}, dst)
		foundClient := false
		for _, h := range path.Hops {
			if tp.IfaceAS(h.Iface) == p.Peer {
				foundClient = true
			}
		}
		if foundClient {
			crossed++
		}
	}
	if crossed == 0 {
		t.Fatal("no trace crossed any peering link")
	}
}

func TestTraceHopsMonotoneRTT(t *testing.T) {
	tp, f := genTopo(t)
	vms := amazonVMs(tp)
	checked := 0
	for i := range tp.ASes {
		as := &tp.ASes[i]
		if as.Type == model.ASCloud || len(as.ServicePrefixes) == 0 {
			continue
		}
		dst := as.ServicePrefixes[0].Addr + 1
		for _, vm := range vms[:3] {
			path := f.Trace(vm, dst)
			last := -1.0
			for hi, h := range path.Hops {
				if h.RTT <= last {
					t.Fatalf("AS %s hop %d: RTT %v not increasing (prev %v)", as.Name, hi, h.RTT, last)
				}
				last = h.RTT
			}
			if path.DstResponds && path.DstRTT <= last {
				t.Fatalf("AS %s: dst RTT %v not after last hop %v", as.Name, path.DstRTT, last)
			}
			checked++
		}
		if checked > 300 {
			break
		}
	}
}

func TestTraceNeverReentersAmazon(t *testing.T) {
	tp, f := genTopo(t)
	amazon := tp.Amazon()
	vms := amazonVMs(tp)
	for i := range tp.ASes {
		as := &tp.ASes[i]
		if as.Type == model.ASCloud || len(as.ServicePrefixes) == 0 {
			continue
		}
		dst := as.ServicePrefixes[0].Addr + 5
		path := f.Trace(vms[i%len(vms)], dst)
		exited := false
		for _, h := range path.Hops {
			hopAS := tp.IfaceAS(h.Iface)
			isAmazon := tp.IsCloudAS(amazon, hopAS)
			if exited && isAmazon {
				t.Fatalf("trace to %s re-entered Amazon", as.Name)
			}
			if !isAmazon {
				exited = true
			}
		}
	}
}

func TestPrivateTargetsStayInside(t *testing.T) {
	tp, f := genTopo(t)
	amazon := tp.Amazon()
	for _, dst := range []string{"10.1.2.3", "192.168.1.1", "100.64.3.7", "172.16.9.9"} {
		path := f.Trace(VM{Cloud: amazon.ID, Region: 0}, netblock.MustParseIP(dst))
		for _, h := range path.Hops {
			if !tp.IsCloudAS(amazon, tp.IfaceAS(h.Iface)) {
				t.Fatalf("private target %s left Amazon", dst)
			}
		}
		if path.DstResponds {
			t.Fatalf("private target %s responded", dst)
		}
	}
}

func TestUnannouncedVPIReachabilityStyles(t *testing.T) {
	tp, f := genTopo(t)
	amazon := tp.Amazon()
	// Unannounced VPI clients come in two routing styles: private-VIF
	// (region-local routes) and public-VIF (cloud-wide routes). Both must
	// exist, every client must be reachable from some home region, and
	// region-local clients must be unreachable from foreign regions.
	regionLocalSeen, globalSeen := 0, 0
	for i := range tp.Peerings {
		p := &tp.Peerings[i]
		if p.Cloud != amazon.ID || p.Kind != model.PeeringVPI {
			continue
		}
		as := &tp.ASes[p.Peer]
		if as.AnnouncesService || len(as.ServicePrefixes) == 0 {
			continue
		}
		regions := map[int]bool{}
		for j := range tp.Peerings {
			q := &tp.Peerings[j]
			if q.Cloud == amazon.ID && q.Peer == p.Peer {
				regions[q.RegionIdx] = true
			}
		}
		dst := as.ServicePrefixes[0].Addr + 1
		home := f.Trace(VM{Cloud: amazon.ID, Region: p.RegionIdx}, dst)
		if len(home.Hops) < 4 {
			t.Fatalf("home-region trace to unannounced client %s did not leave the region: %d hops", as.Name, len(home.Hops))
		}
		// Probe from every non-home region; classify the client.
		reachableElsewhere := false
		for r := 0; r < len(amazon.Regions); r++ {
			if regions[r] {
				continue
			}
			other := f.Trace(VM{Cloud: amazon.ID, Region: r}, dst)
			for _, h := range other.Hops {
				if !tp.IsCloudAS(amazon, tp.IfaceAS(h.Iface)) {
					reachableElsewhere = true
				}
			}
		}
		if reachableElsewhere {
			globalSeen++
		} else {
			regionLocalSeen++
		}
	}
	if regionLocalSeen == 0 && globalSeen == 0 {
		t.Skip("no unannounced VPI-only client in small topology")
	}
	// Both styles exist at scale; the small world may only draw one.
	t.Logf("unannounced VPI clients: %d region-local, %d cloud-wide", regionLocalSeen, globalSeen)
}

func TestECMPSpreadsAcrossParallelLinks(t *testing.T) {
	tp, f := genTopo(t)
	amazon := tp.Amazon()
	for i := range tp.Peerings {
		p := &tp.Peerings[i]
		if p.Cloud != amazon.ID || len(p.Links) < 2 {
			continue
		}
		seen := map[model.LinkID]bool{}
		for d := 0; d < 64; d++ {
			seen[f.pickLink(p, netblock.IP(0x40000000+d))] = true
		}
		if len(seen) < 2 {
			t.Errorf("peering %d: ECMP never used a second of its %d links", i, len(p.Links))
		}
		return
	}
	t.Skip("no multi-link peering")
}

func TestDirectIfaceTargetCrossesItsOwnLink(t *testing.T) {
	tp, f := genTopo(t)
	amazon := tp.Amazon()
	for i := range tp.Links {
		l := &tp.Links[i]
		p := &tp.Peerings[l.Peering]
		if p.Cloud != amazon.ID {
			continue
		}
		addr := tp.Ifaces[l.PeerIface].Addr
		path := f.Trace(VM{Cloud: amazon.ID, Region: p.RegionIdx}, addr)
		if path.DstIface != l.PeerIface {
			t.Fatalf("trace to CBI address did not terminate at the CBI: got iface %d want %d", path.DstIface, l.PeerIface)
		}
		if !path.DstResponds {
			t.Fatal("CBI destination did not respond")
		}
		return
	}
}

func TestExternalReachSemantics(t *testing.T) {
	tp, f := genTopo(t)
	amazon := tp.Amazon()

	// Amazon backbone interfaces are never reachable from outside: either
	// unannounced or filtered.
	for fac, routers := range amazon.BorderRouters {
		_ = fac
		for _, r := range routers {
			for _, ifc := range tp.Routers[r].Ifaces {
				if ok, _ := f.ExternalReach(tp.Ifaces[ifc].Addr); ok {
					t.Fatalf("amazon border interface %v reachable from public Internet", tp.Ifaces[ifc].Addr)
				}
			}
		}
		break
	}

	// An announced, non-filtering client's interface should be reachable.
	found := false
	for i := range tp.ASes {
		as := &tp.ASes[i]
		if as.Type != model.ASTier2 || !as.AnnouncesInfra {
			continue
		}
		for _, r := range as.Routers {
			for _, ifc := range tp.Routers[r].Ifaces {
				addr := tp.Ifaces[ifc].Addr
				if addr.IsPrivate() || tp.AddrOwner(addr) != as.Index {
					continue
				}
				if ok, rtt := f.ExternalReach(addr); ok {
					if rtt <= 0 {
						t.Error("reachable with non-positive RTT")
					}
					found = true
				}
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Error("no client interface reachable from the external VP")
	}
}

func TestEgressCacheDeterminism(t *testing.T) {
	tp, f := genTopo(t)
	f2 := NewForwarder(tp)
	amazon := tp.Amazon()
	vm := VM{Cloud: amazon.ID, Region: 2}
	for i := range tp.ASes {
		as := &tp.ASes[i]
		if as.Type == model.ASCloud || len(as.ServicePrefixes) == 0 {
			continue
		}
		dst := as.ServicePrefixes[0].Addr + 9
		a, b := f.Trace(vm, dst), f2.Trace(vm, dst)
		if len(a.Hops) != len(b.Hops) {
			t.Fatalf("AS %s: different hop counts across forwarders", as.Name)
		}
		for h := range a.Hops {
			if a.Hops[h].Iface != b.Hops[h].Iface {
				t.Fatalf("AS %s hop %d differs", as.Name, h)
			}
		}
	}
}

// TestEgressMemoFillOrder: the egress memo keeps one choice per (region,
// destination AS), filled by whichever of the AS's destinations is traced
// first. Paths must not depend on which one that was: filling the memo in
// forward order, in reverse, or from 8 goroutines at once yields exactly
// the paths of a forwarder whose memo slot is empty before every trace.
func TestEgressMemoFillOrder(t *testing.T) {
	tp, ref := genTopo(t)
	amazon := tp.Amazon()
	vms := amazonVMs(tp)

	// Destinations grouped by client AS: the first /24s of each service
	// and infrastructure prefix, so chooseInstance's per-/24 hash varies
	// within a group.
	type group struct {
		owner model.ASIndex
		dsts  []netblock.IP
	}
	var groups []group
	for i := range tp.ASes {
		as := &tp.ASes[i]
		if as.Type == model.ASCloud {
			continue
		}
		g := group{owner: as.Index}
		for _, pfx := range append(append([]netblock.Prefix(nil), as.ServicePrefixes...), as.InfraPrefixes...) {
			for k, s24 := range pfx.Slash24s() {
				if k == 2 {
					break
				}
				if d := ref.Dest(s24.Addr + 1); d.Owner == as.Index {
					g.dsts = append(g.dsts, d.IP)
				}
			}
		}
		if len(g.dsts) >= 2 {
			groups = append(groups, g)
		}
	}
	if len(groups) < 100 {
		t.Fatalf("only %d client ASes with two or more destinations", len(groups))
	}

	// want[v][g][k]: the path with the memo slot emptied before the trace.
	want := make([][][]Path, len(vms))
	for v, vm := range vms {
		want[v] = make([][]Path, len(groups))
		for g, grp := range groups {
			for _, dst := range grp.dsts {
				ref.egressSlot(vm, grp.owner).Store(nil)
				want[v][g] = append(want[v][g], ref.TraceAt(vm, dst, 0))
			}
			// The memoised choice itself ignores the destination.
			a := ref.computeEgress(vm, amazon, grp.owner, grp.dsts[0])
			b := ref.computeEgress(vm, amazon, grp.owner, grp.dsts[1])
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("region %d AS %d: computeEgress depends on the destination: %+v vs %+v", vm.Region, grp.owner, a, b)
			}
		}
	}

	check := func(order string, f *Forwarder, v, g, k int) bool {
		got := f.TraceAt(vms[v], groups[g].dsts[k], 0)
		if !reflect.DeepEqual(got, want[v][g][k]) {
			t.Errorf("%s fill: region %d dst %s: path differs from a fresh memo's", order, v, groups[g].dsts[k])
			return false
		}
		return true
	}
	forward := NewForwarder(tp)
	reverse := NewForwarder(tp)
	for v := range vms {
		for g, grp := range groups {
			for k := range grp.dsts {
				check("forward", forward, v, g, k)
				check("reverse", reverse, v, g, len(grp.dsts)-1-k)
			}
		}
	}

	// Concurrent fill: each goroutine walks every destination from its own
	// starting offset, so different destinations race to fill each slot.
	concurrent := NewForwarder(tp)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range vms {
				for g, grp := range groups {
					for i := range grp.dsts {
						if !check("concurrent", concurrent, v, g, (i+w)%len(grp.dsts)) {
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestAnnouncedOriginMatchesOwnership(t *testing.T) {
	tp, f := genTopo(t)
	for i := range tp.ASes {
		as := &tp.ASes[i]
		if !as.AnnouncesService || len(as.ServicePrefixes) == 0 {
			continue
		}
		ip := as.ServicePrefixes[0].Addr + 3
		origin, ok := f.AnnouncedOrigin(ip)
		if !ok || origin != as.Index {
			t.Fatalf("AS %s: announced origin %d,%v", as.Name, origin, ok)
		}
	}
}
