package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"nomad/internal/cpu"
	"nomad/internal/workload"
)

func TestFoldProfileAttributesEverySample(t *testing.T) {
	spec, ok := workload.ByAbbr("pr")
	if !ok {
		t.Fatal("no pr workload")
	}
	// A core ticking over the fake port: Core.Tick calls Stream.Next, so
	// samples in the stream generator have cpu frames above them and must
	// still go to workload, the innermost layer.
	port := &fakePort{}
	c := cpu.New(0, cpu.DefaultConfig(), port, workload.NewStream(spec, 1))
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(time.Second); time.Now().Before(end); {
		for i := 0; i < 10000; i++ {
			port.now++
			port.deliver()
			c.Tick(port.now)
		}
	}
	pprof.StopCPUProfile()

	counts, total, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("profile holds no samples")
	}
	var sum int64
	for _, l := range layers {
		sum += counts[l]
	}
	if sum != total || len(counts) != len(layers) {
		t.Errorf("layers hold %d of %d samples in %d layers, want all in %d", sum, total, len(counts), len(layers))
	}
	if counts["cpu"] == 0 || counts["workload"] == 0 {
		t.Errorf("cpu holds %d and workload %d of %d samples, want both nonzero", counts["cpu"], counts["workload"], total)
	}
}

func TestFoldProfileRejectsGarbage(t *testing.T) {
	if _, _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Error("foldProfile accepted a non-gzip input")
	}
}
