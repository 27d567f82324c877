package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"locat/internal/core"
	"locat/internal/runner"
	"locat/internal/sparksim"
)

// A job's Halt hook answers its limits in one order: the cluster-second
// budget, then the deadline, then a cancel or a drain. A limit that is not
// set never answers.
func TestLimits(t *testing.T) {
	past := time.Now().Add(-time.Hour) // any deadline counted from here has passed
	budget, deadline := "core: cluster-second budget exhausted (12 s of 10 s)", "core: deadline exceeded"
	for _, c := range []struct {
		name    string
		spec    JobSpec
		start   time.Time
		stopped bool
		want    string // "" is nil
	}{
		{name: "nothing set", start: past},
		{name: "budget", spec: JobSpec{MaxClusterSec: 10}, want: budget},
		{name: "budget not spent", spec: JobSpec{MaxClusterSec: 20}},
		{name: "deadline", spec: JobSpec{DeadlineSec: 1}, start: past, want: deadline},
		{name: "deadline not passed", spec: JobSpec{DeadlineSec: 3600}, start: time.Now()},
		{name: "cancel or drain", stopped: true, want: core.ErrStopped.Error()},
		{name: "budget with deadline", spec: JobSpec{MaxClusterSec: 10, DeadlineSec: 1}, start: past, want: budget},
		{name: "deadline with cancel", spec: JobSpec{DeadlineSec: 1}, start: past, stopped: true, want: deadline},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := limits(c.spec, c.start, func() bool { return c.stopped })(12)
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != c.want {
				t.Fatalf("halt(12 s) = %q; want %q", got, c.want)
			}
			if c.want == core.ErrStopped.Error() && !errors.Is(err, core.ErrStopped) {
				t.Fatalf("halt(12 s) = %v; want core.ErrStopped itself", err)
			}
		})
	}
}

// A job evaluates the default configuration once, in the session's
// guardrail, and reports that value as DefaultSec. On a live gateway every
// noiseless evaluation is a submission: a finished job makes two, one for
// the tuned configuration and one for the default.
func TestJobEvaluatesDefaultOnce(t *testing.T) {
	var posts, noiseless atomic.Int64
	live := liveGateway(&posts)
	gw := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var sub struct {
			Noiseless bool `json:"noiseless"`
		}
		if json.Unmarshal(body, &sub) == nil && sub.Noiseless {
			noiseless.Add(1)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		live.ServeHTTP(w, r)
	}))
	defer gw.Close()
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := quickSpec(80, 4)
	spec.Backend = "sparkrest=" + gw.URL
	res, err := submitAndWait(t, s, spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := noiseless.Load(); n != 2 {
		t.Fatalf("the job made %d noiseless submissions; want 2 (tuned and default)", n)
	}
	if res.DefaultSec <= 0 || res.TunedSec > res.DefaultSec {
		t.Fatalf("DefaultSec = %v, TunedSec = %v; want the guardrail's default, no faster than tuned", res.DefaultSec, res.TunedSec)
	}
}

// NIICP defaults to every phase-1 sample when NQCSA is below the paper's 20:
// a spec that leaves NIICP out tunes exactly like one that sets it to NQCSA.
func TestNIICPDefaultsToSampleCount(t *testing.T) {
	run := func(niicp int) *core.Report {
		t.Helper()
		spec := quickSpec(100, 3)
		spec.NQCSA, spec.NIICP = 12, niicp
		_, rep, err := RunSession(runner.NewSim(sparksim.New(sparksim.ARM(), spec.Seed)), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	unset, twelve := run(0), run(12)
	if unset.IICP == nil || len(unset.IICP.Important) == 0 {
		t.Fatal("the session ran no IICP analysis")
	}
	if !reflect.DeepEqual(unset, twelve) {
		t.Fatalf("NIICP unset and NIICP 12 differ:\n unset %+v\n 12    %+v", unset, twelve)
	}
}
