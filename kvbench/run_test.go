package main

import (
	"testing"
)

// Every workload must run clean on a healthy build, untraced and traced,
// and report every metric its mode promises.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			p := params{wl: wl, seed: 7, seconds: 1, trace: trace, workDir: t.TempDir(), clients: 2}
			res, err := measure(p)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", wl.name, trace, res.attempted, res.failed)
			}
			for _, d := range endToEnd {
				if v := res.e2e[d.name]; !(v > 0) {
					t.Errorf("%s trace=%v: %s = %v, want > 0", wl.name, trace, d.name, v)
				}
			}
			if trace {
				for _, d := range perLayer {
					if _, ok := res.layer[d.name]; !ok {
						t.Errorf("%s: per-layer metric %s missing", wl.name, d.name)
					}
				}
			}
		}
	}
}
