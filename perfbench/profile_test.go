package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

// TestDecodeCPUProfile round-trips a real runtime/pprof CPU profile through
// the decoder and finds the function that burned the CPU.
func TestDecodeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spinForProfile(500 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spin, total int64
	for _, s := range samples {
		total += s.cpuNS
		for _, f := range s.frames {
			if strings.HasSuffix(f.fn, ".spinForProfile") && strings.HasSuffix(f.file, "profile_test.go") {
				spin += s.cpuNS
				break
			}
		}
	}
	if total == 0 || spin < total/2 {
		t.Fatalf("spinForProfile holds %d of %d profiled ns in %d samples", spin, total, len(samples))
	}
}
