package border

import (
	"testing"

	"cloudmap/internal/netblock"
	"cloudmap/internal/registry"
	"cloudmap/internal/topo"
)

// probeLen counts the slots find visits for ip: the same walk from the
// home slot, stopping at ip's slot or the first empty one.
func probeLen(t *annTable, ip netblock.IP) int {
	mask := uint32(len(t.slots) - 1)
	n := 1
	for i := t.home(ip); t.slots[i].ip != ip && t.slots[i].ip != netblock.Zero; i = (i + 1) & mask {
		n++
	}
	return n
}

// TestAnnTableProbeLength fills the annotation memo with every interface
// address of the small topology and checks that lookups stay short. Linear
// probing at the table's 75% load cap averages ~2.5 probes per hit when
// home slots are spread uniformly; an index that ignores the high bits of
// the address piles subnets sharing a host part onto the same slots.
func TestAnnTableProbeLength(t *testing.T) {
	tp, err := topo.Generate(topo.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var tab annTable
	var addrs []netblock.IP
	seen := map[netblock.IP]bool{}
	grows := 0
	for _, ifc := range tp.Ifaces {
		ip := ifc.Addr
		if ip == netblock.Zero || seen[ip] {
			continue
		}
		seen[ip] = true
		before := len(tab.slots)
		// The annotation's ASN carries the insertion index, so a hit on
		// the wrong slot shows up as a wrong annotation.
		tab.insert(ip, uint8(len(addrs)&3), registry.Annotation{ASN: registry.ASN(len(addrs) + 1)})
		if len(tab.slots) != before {
			grows++
		}
		addrs = append(addrs, ip)
	}
	if grows < 2 {
		t.Fatalf("%d addresses grew the table %d times; want at least 2", len(addrs), grows)
	}

	total := 0
	for i, ip := range addrs {
		s := tab.find(ip)
		if s.ip != ip {
			t.Fatalf("address %v not found", ip)
		}
		if got := tab.anns[s.annIdx].ASN; got != registry.ASN(i+1) || s.flags != uint8(i&3) {
			t.Fatalf("address %v: annotation ASN %d flags %d, want %d and %d", ip, got, s.flags, i+1, i&3)
		}
		total += probeLen(&tab, ip)
	}
	mean := float64(total) / float64(len(addrs))
	t.Logf("%d addresses in %d slots (%d grows): mean probe length %.2f", len(addrs), len(tab.slots), grows, mean)
	if mean > 3 {
		t.Errorf("mean probe length %.2f over %d addresses; want <= 3", mean, len(addrs))
	}
}
