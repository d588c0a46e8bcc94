package main

import (
	"fmt"
	"runtime"
	"strings"
)

// faultCase is one self-test run: a workload with an injected fault
// and the output check that must catch it ("" for the clean run, in
// which no check may fail).
type faultCase struct {
	workload, fault, check string
}

var faultCases = []faultCase{
	{"campaign-sim", "", ""},
	{"campaign-sim", "exclude-address", "exactly-once"},
	{"campaign-sim", "flaky-prober", "probe-errors"},
	{"plan-churn", "", ""},
	{"plan-churn", "drop-census-address", "census-truth"},
	{"plan-churn", "corrupt-snapshot-file", "reopened-snapshot"},
	{"plan-churn", "drop-ranker-address", "incremental-vs-full"},
	{"fleet-http", "", ""},
	{"fleet-http", "worker-exclude", "fleet-vs-reference"},
	{"tcp-loopback", "", ""},
	{"tcp-loopback", "listener-down", "tcp-listeners"},
}

// runSelfTest runs one pass of every workload clean and under each
// injected fault, and fails unless the clean passes check out and
// every fault trips the check meant to catch it.
func runSelfTest(dir string, seed int64) error {
	bad := 0
	procs := runtime.GOMAXPROCS(0)
	for _, c := range faultCases {
		e := &env{seed: seed, dir: dir, fault: c.fault}
		w := workloads[c.workload]
		w.useProcs(procs)
		inst, err := w.setup(e)
		if err != nil {
			return fmt.Errorf("%s setup: %w", c.workload, err)
		}
		t := &tally{}
		_, err = inst.pass(nil, t)
		inst.close()
		if err != nil {
			return fmt.Errorf("%s pass (fault %q): %w", c.workload, c.fault, err)
		}
		caught := false
		for _, f := range t.failures {
			if strings.HasPrefix(f, c.check+": ") {
				caught = true
			}
		}
		ok := t.failedChecks == 0
		verdict := "clean"
		if c.fault != "" {
			ok = caught
			verdict = "not caught"
			if caught {
				verdict = "caught by " + c.check
			}
		}
		if !ok {
			bad++
			verdict = "FAIL: " + verdict
		}
		fault := c.fault
		if fault == "" {
			fault = "(none)"
		}
		fmt.Printf("selftest %-13s fault %-22s %d/%d checks failed, %d failed ops: %s\n",
			c.workload, fault, t.failedChecks, t.attempted, t.failed, verdict)
		for _, f := range t.failures[:min(len(t.failures), 2)] {
			fmt.Printf("    %s\n", f)
		}
	}
	if bad > 0 {
		return fmt.Errorf("self-test: %d of %d cases failed", bad, len(faultCases))
	}
	fmt.Printf("selftest: all %d cases passed\n", len(faultCases))
	return nil
}
