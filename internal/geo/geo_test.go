package geo

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestWorldLookup(t *testing.T) {
	w := NewWorld()
	id, ok := w.ByCode("iad")
	if !ok {
		t.Fatal("iad not found")
	}
	m := w.Metro(id)
	if m.City != "Ashburn" || m.Country != "US" {
		t.Fatalf("iad resolved to %+v", m)
	}
	if _, ok := w.ByCode("zzz"); ok {
		t.Fatal("unknown code resolved")
	}
}

func TestByCityNormalization(t *testing.T) {
	w := NewWorld()
	for _, name := range []string{"Sao Paulo", "sao paulo", "SAOPAULO", "sao-paulo"} {
		if _, ok := w.ByCity(name); !ok {
			t.Errorf("ByCity(%q) failed", name)
		}
	}
	a, _ := w.ByCity("New York")
	b, _ := w.ByCode("nyc")
	if a != b {
		t.Errorf("city and code lookups disagree: %d vs %d", a, b)
	}
}

func TestUniqueCodes(t *testing.T) {
	w := NewWorld()
	seen := map[string]bool{}
	for _, m := range w.Metros {
		if seen[m.Code] {
			t.Fatalf("duplicate metro code %q", m.Code)
		}
		seen[m.Code] = true
	}
}

func TestDistanceKnownPairs(t *testing.T) {
	w := NewWorld()
	iad, _ := w.ByCode("iad")
	sfo, _ := w.ByCode("sfo")
	lhr, _ := w.ByCode("lhr")
	// Washington DC area to San Francisco is ~3900 km; to London ~5900 km.
	if d := w.DistanceKm(iad, sfo); d < 3600 || d > 4200 {
		t.Errorf("iad-sfo distance = %v km", d)
	}
	if d := w.DistanceKm(iad, lhr); d < 5500 || d > 6300 {
		t.Errorf("iad-lhr distance = %v km", d)
	}
	if d := w.DistanceKm(iad, iad); d != 0 {
		t.Errorf("self distance = %v", d)
	}
}

func TestDistanceProperties(t *testing.T) {
	w := NewWorld()
	n := len(w.Metros)
	symm := func(a, b uint16) bool {
		ma, mb := MetroID(int(a)%n), MetroID(int(b)%n)
		d1, d2 := w.DistanceKm(ma, mb), w.DistanceKm(mb, ma)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0
	}
	if err := quick.Check(symm, nil); err != nil {
		t.Fatal("distance not symmetric/non-negative:", err)
	}
	tri := func(a, b, c uint16) bool {
		ma, mb, mc := MetroID(int(a)%n), MetroID(int(b)%n), MetroID(int(c)%n)
		// Great-circle distances satisfy the triangle inequality.
		return w.DistanceKm(ma, mc) <= w.DistanceKm(ma, mb)+w.DistanceKm(mb, mc)+1e-6
	}
	if err := quick.Check(tri, nil); err != nil {
		t.Fatal("triangle inequality violated:", err)
	}
}

func TestPropagationRTT(t *testing.T) {
	w := NewWorld()
	iad, _ := w.ByCode("iad")
	sfo, _ := w.ByCode("sfo")
	// Cross-US RTT should be tens of ms, not sub-ms and not seconds.
	rtt := w.PropagationRTTms(iad, sfo)
	if rtt < 30 || rtt > 90 {
		t.Errorf("iad-sfo propagation RTT = %v ms", rtt)
	}
	if w.PropagationRTTms(iad, iad) != 0 {
		t.Error("self RTT not zero")
	}
}

func TestRTTOverKm(t *testing.T) {
	if got := RTTOverKm(0); got != 0 {
		t.Errorf("RTTOverKm(0) = %v", got)
	}
	// 1000 km one-way with 1.5x inflation at 200 km/ms => 15 ms RTT.
	if got := RTTOverKm(1000); math.Abs(got-15) > 1e-9 {
		t.Errorf("RTTOverKm(1000) = %v, want 15", got)
	}
}

func TestClosestMetro(t *testing.T) {
	w := NewWorld()
	iad, _ := w.ByCode("iad")
	nyc, _ := w.ByCode("nyc")
	nrt, _ := w.ByCode("nrt")
	got := w.ClosestMetro(iad, []MetroID{nrt, nyc})
	if got != nyc {
		t.Errorf("ClosestMetro(iad) = %v, want nyc", w.Metro(got).Code)
	}
}

func TestSortByDistance(t *testing.T) {
	w := NewWorld()
	iad, _ := w.ByCode("iad")
	var all []MetroID
	for _, m := range w.Metros {
		all = append(all, m.ID)
	}
	w.SortByDistance(iad, all)
	if all[0] != iad {
		t.Errorf("closest metro to iad is %v, want iad itself", w.Metro(all[0]).Code)
	}
	for i := 1; i < len(all); i++ {
		if w.DistanceKm(iad, all[i-1]) > w.DistanceKm(iad, all[i]) {
			t.Fatalf("not sorted at index %d", i)
		}
	}
}

func TestAmazonRegions(t *testing.T) {
	w := NewWorld()
	regions := AmazonRegions(w)
	if len(regions) != 15 {
		t.Fatalf("got %d Amazon regions, want 15 (paper probes 15)", len(regions))
	}
	seen := map[string]bool{}
	for _, r := range regions {
		if seen[r.Name] {
			t.Errorf("duplicate region %s", r.Name)
		}
		seen[r.Name] = true
		if r.Metro < 0 || int(r.Metro) >= len(w.Metros) {
			t.Errorf("region %s has invalid metro", r.Name)
		}
	}
	if !seen["us-east-1"] || !seen["eu-west-1"] {
		t.Error("expected canonical regions missing")
	}
}

func TestCloudRegions(t *testing.T) {
	w := NewWorld()
	for _, p := range []string{"microsoft", "google", "ibm", "oracle"} {
		rs := CloudRegions(w, p)
		if len(rs) == 0 {
			t.Errorf("no regions for %s", p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown provider did not panic")
		}
	}()
	CloudRegions(w, "nosuch")
}

func TestInvalidMetroPanics(t *testing.T) {
	w := NewWorld()
	n := MetroID(len(w.Metros))
	iad, _ := w.ByCode("iad")
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	for _, bad := range []MetroID{-5, None, n, n + 7} {
		mustPanic(fmt.Sprintf("Metro(%d)", bad), func() { w.Metro(bad) })
		mustPanic(fmt.Sprintf("DistanceKm(%d, %d)", bad, bad), func() { w.DistanceKm(bad, bad) })
		mustPanic(fmt.Sprintf("DistanceKm(iad, %d)", bad), func() { w.DistanceKm(iad, bad) })
		mustPanic(fmt.Sprintf("DistanceKm(%d, iad)", bad), func() { w.DistanceKm(bad, iad) })
		mustPanic(fmt.Sprintf("PropagationRTTms(%d, %d)", bad, bad), func() { w.PropagationRTTms(bad, bad) })
		mustPanic(fmt.Sprintf("PropagationRTTms(iad, %d)", bad), func() { w.PropagationRTTms(iad, bad) })
	}
}

// TestDistanceTableMatchesHaversine: the precomputed tables hold exactly
// what the great-circle formula gives for every ordered metro pair, bit for
// bit, so switching from per-call trigonometry to lookups changed no RTT.
func TestDistanceTableMatchesHaversine(t *testing.T) {
	w := NewWorld()
	for _, a := range w.Metros {
		for _, b := range w.Metros {
			want := 0.0
			if a.ID != b.ID {
				want = haversineKm(a.Lat, a.Lon, b.Lat, b.Lon)
			}
			if got := w.DistanceKm(a.ID, b.ID); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("DistanceKm(%s, %s) = %v, haversine gives %v", a.Code, b.Code, got, want)
			}
			km := want * pathInflation
			wantRTT := 2 * km / fiberKmPerMsOneWay
			if got := w.PropagationRTTms(a.ID, b.ID); math.Float64bits(got) != math.Float64bits(wantRTT) {
				t.Fatalf("PropagationRTTms(%s, %s) = %v, want %v", a.Code, b.Code, got, wantRTT)
			}
		}
	}
}

// TestDistanceTableSymmetric: both tables are exactly symmetric with a zero
// diagonal.
func TestDistanceTableSymmetric(t *testing.T) {
	w := NewWorld()
	for _, a := range w.Metros {
		if d, r := w.DistanceKm(a.ID, a.ID), w.PropagationRTTms(a.ID, a.ID); d != 0 || r != 0 {
			t.Fatalf("%s to itself: %v km, %v ms", a.Code, d, r)
		}
		for _, b := range w.Metros {
			if w.DistanceKm(a.ID, b.ID) != w.DistanceKm(b.ID, a.ID) {
				t.Fatalf("DistanceKm(%s, %s) != DistanceKm(%s, %s)", a.Code, b.Code, b.Code, a.Code)
			}
			if w.PropagationRTTms(a.ID, b.ID) != w.PropagationRTTms(b.ID, a.ID) {
				t.Fatalf("PropagationRTTms(%s, %s) not symmetric", a.Code, b.Code)
			}
		}
	}
}
