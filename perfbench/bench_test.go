package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"ava/internal/bytesconv"
)

func TestCheckBytesRejectsFlippedByte(t *testing.T) {
	want := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(want)
	got := append([]byte(nil), want...)
	if err := checkBytes(got, want); err != nil {
		t.Fatalf("identical read-back rejected: %v", err)
	}
	got[1234] ^= 0x10
	if checkBytes(got, want) == nil {
		t.Fatal("read-back with a flipped byte accepted")
	}
	if checkBytes(got[:4095], want) == nil {
		t.Fatal("short read-back accepted")
	}
}

func TestCheckChecksumRejectsPerturbedSum(t *testing.T) {
	want := 81234.5678
	if err := checkChecksum("nw", want, want); err != nil {
		t.Fatalf("equal checksum rejected: %v", err)
	}
	if checkChecksum("nw", math.Nextafter(want, math.Inf(1)), want) == nil {
		t.Fatal("checksum one ulp off accepted")
	}
}

func TestCheckSaxpyRejectsWrongElement(t *testing.T) {
	model := []float32{3, -7, 12, 0, 5, -64, 8, 1}
	got := bytesconv.Float32Bytes(model)
	if err := checkSaxpy(got, model); err != nil {
		t.Fatalf("matching read-back rejected: %v", err)
	}
	binary.LittleEndian.PutUint32(got[4*5:], math.Float32bits(-63))
	if checkSaxpy(got, model) == nil {
		t.Fatal("read-back with a wrong element accepted")
	}
}

func TestProberFiresByCallIndex(t *testing.T) {
	p := &prober{next: 7}
	if p.due() {
		t.Fatal("unarmed probe fired")
	}
	p.armed = true
	var at []int
	for i := 1; i <= 3*probeEvery; i++ {
		if p.due() {
			at = append(at, i)
		}
	}
	if len(at) != 3 || at[0] != 7 || at[1] != 7+probeEvery || at[2] != 7+2*probeEvery {
		t.Fatalf("probes at calls %v, want 7 and every %d after", at, probeEvery)
	}
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	fill := func(n int) *hist {
		h := &hist{}
		for i := n; i >= 1; i-- {
			h.add(uint64(i))
		}
		return h
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // 91..100 lie beyond
		{99, 0.9, 90, false}, // only 91..99
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
	} {
		got, ok := fill(c.n).quantile(c.p)
		// Past 128 a bucket spans several values; the estimate stays
		// within the bucket's width of the exact rank.
		if math.Abs(got-c.want) > c.want/(1<<subBits) || ok != c.ok {
			t.Errorf("quantile(%d samples, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := (&hist{}).quantile(0.5); ok {
		t.Error("empty histogram reported a median")
	}
}

func TestHistBucketsTileTheRange(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 123456789, 1 << 40, math.MaxUint64} {
		lo, width := bucketRange(bucketOf(v))
		if v < lo || v-lo >= width {
			t.Errorf("value %d falls in bucket [%d, %d+%d)", v, lo, lo, width)
		}
		if v >= 1<<subBits && float64(width)/float64(lo) > 1.0/(1<<subBits) {
			t.Errorf("bucket of %d spans %d of %d", v, width, lo)
		}
	}
}

// metricNames reads the metric names BENCHMARK.json lists under key.
func metricNames(t *testing.T, key string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench map[string]json.RawMessage
	var ms []struct{ Name string }
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bench[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestRunPrintsListedMetrics runs callpath briefly, untraced and traced,
// and requires exactly the metrics BENCHMARK.json lists for each mode.
func TestRunPrintsListedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload")
	}
	wl, err := workloadByName("callpath")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		traced bool
		key    string
	}{{false, "end_to_end"}, {true, "per_layer"}} {
		res, err := run(wl, 7, 400*time.Millisecond, c.traced, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", c.traced, res.Correct, res.Attempted, res.Failed)
		}
		got, want := keys(res.Metrics), metricNames(t, c.key)
		if len(got) != len(want) {
			t.Fatalf("traced=%v: metrics %v, BENCHMARK.json lists %v", c.traced, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("traced=%v: metrics %v, BENCHMARK.json lists %v", c.traced, got, want)
			}
		}
		if !c.traced {
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
		}
	}
}
