package loadgen

import (
	"errors"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"

	"locat/internal/service"
)

func quickTemplate() service.JobSpec {
	return service.JobSpec{
		Cluster:       "arm",
		Benchmark:     "TPC-H",
		NQCSA:         10,
		NIICP:         8,
		MaxIterations: 8,
	}
}

// The workload is a pure function of its options: same seed, same ops,
// bit for bit — the property the benchmark gate stands on.
func TestMixDeterministic(t *testing.T) {
	o := MixOptions{
		Seed:             7,
		BatchTunes:       5,
		InteractiveTunes: 3,
		Recommends:       2,
		Tenants:          []string{"acme", "globex"},
		Template:         quickTemplate(),
	}
	a, b := Mix(o), Mix(o)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same MixOptions produced different workloads")
	}
	if len(a) != 10 {
		t.Fatalf("len = %d, want 10", len(a))
	}
	for i, op := range a {
		// Fixed class order: batch tunes, interactive tunes, recommends.
		switch {
		case i < 5:
			if op.Kind != KindTune || op.Spec.Priority != service.PriorityBatch {
				t.Fatalf("op %d = %s/%s, want batch tune", i, op.Kind, op.Spec.Priority)
			}
		case i < 8:
			if op.Kind != KindTune || op.Spec.Priority != service.PriorityInteractive {
				t.Fatalf("op %d = %s/%s, want interactive tune", i, op.Kind, op.Spec.Priority)
			}
		default:
			if op.Kind != KindRecommend {
				t.Fatalf("op %d = %s, want recommend", i, op.Kind)
			}
		}
		if op.Spec.Tenant != "acme" && op.Spec.Tenant != "globex" {
			t.Fatalf("op %d assigned unknown tenant %q", i, op.Spec.Tenant)
		}
		if want := []float64{100, 120, 140}[i%3]; op.Spec.DataSizeGB != want {
			t.Fatalf("op %d size = %v, want the default cycle value %v", i, op.Spec.DataSizeGB, want)
		}
		if op.Spec.Seed != o.Seed+int64(i)+1 {
			t.Fatalf("op %d seed = %d; per-op seeds must be distinct and derived", i, op.Spec.Seed)
		}
		if op.Spec.NQCSA != 10 {
			t.Fatalf("op %d dropped the template budgets", i)
		}
	}
	if got := a[0].Group(); got != a[0].Spec.Tenant+"/batch" {
		t.Fatalf("Group() = %q", got)
	}
	// No tenant list: the anonymous tenant.
	anon := Mix(MixOptions{BatchTunes: 1, Template: quickTemplate()})
	if g := anon[0].Group(); g != "default/batch" {
		t.Fatalf("anonymous group = %q, want default/batch", g)
	}
}

func TestQuantiles(t *testing.T) {
	if st := quantiles(nil); st.Count != 0 || st.P50 != 0 || st.Max != 0 {
		t.Fatalf("empty quantiles = %+v", st)
	}
	samples := []float64{5, 1, 3, 2, 4} // unsorted on purpose
	st := quantiles(samples)
	if st.Count != 5 || st.P50 != 3 || math.Abs(st.P99-4.96) > 1e-12 || st.Max != 5 {
		t.Fatalf("quantiles = %+v, want count 5 p50 3 p99 4.96 max 5", st)
	}
	if !reflect.DeepEqual(samples, []float64{5, 1, 3, 2, 4}) {
		t.Fatal("quantiles mutated its input")
	}
	// Two samples: the p99 lies just under the larger one, not at the smaller.
	if st := quantiles([]float64{2, 1}); !(st.P99 > 1) || st.P99 > st.Max || st.P50 != 1.5 {
		t.Fatalf("two-sample quantiles = %+v, want p50 1.5 and min < p99 ≤ max", st)
	}
}

// Sequential submission against a held one-worker service: the admission
// outcome of every op is exactly predictable, down to who gets shed.
func TestRunSequentialExactCounts(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, QueueCap: 2})
	defer svc.Close()
	svc.Hold()

	ops := Mix(MixOptions{
		Seed:             1,
		BatchTunes:       3,
		InteractiveTunes: 1,
		Template:         quickTemplate(),
	})
	rep, err := Run(svc, ops, Config{
		Clients:          2,
		SequentialSubmit: true,
		AfterSubmit:      svc.Release,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Queue of 2: batch 1 and 2 queue, batch 3 is refused, the interactive
	// submission sheds batch 2 — then the released worker runs the rest.
	batch := rep.Groups["default/batch"]
	if batch == nil || batch.Submitted != 3 || batch.Accepted != 2 ||
		batch.Rejected != 1 || batch.Shed != 1 || batch.Completed != 1 {
		t.Fatalf("batch census = %+v; want 3 submitted, 2 accepted, 1 rejected, 1 shed, 1 completed", batch)
	}
	inter := rep.Groups["default/interactive"]
	if inter == nil || inter.Submitted != 1 || inter.Accepted != 1 || inter.Completed != 1 {
		t.Fatalf("interactive census = %+v; want 1 submitted, accepted and completed", inter)
	}
	tot := rep.Totals()
	if tot.Completed != 2 || tot.Failed != 0 || tot.Runs == 0 || tot.ClusterSec <= 0 {
		t.Fatalf("totals = %+v; want 2 clean completions with metered runs", tot)
	}
	if rep.Ops != 4 || rep.WallSec <= 0 {
		t.Fatalf("report ops/wall = %d/%v", rep.Ops, rep.WallSec)
	}
	sub := rep.Routes["submit"]
	if sub.Count != 4 || sub.Max < sub.P50 {
		t.Fatalf("submit route stats = %+v", sub)
	}
}

// The HTTP target decodes the service's refusal envelope into a Rejection
// that classifies as overload, so HTTP runs count back-pressure the same
// way in-process runs do.
func TestHTTPTargetDecodesRejection(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, QueueCap: 1})
	defer svc.Close()
	svc.Hold()
	defer svc.Release()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	target := &HTTPTarget{Base: srv.URL, Client: srv.Client()}

	spec := quickTemplate()
	spec.DataSizeGB, spec.Seed = 100, 1
	id, err := target.Submit(spec)
	if err != nil || id == "" {
		t.Fatalf("first submit: id=%q err=%v", id, err)
	}
	st, err := target.Status(id)
	if err != nil || st.State != service.StateQueued {
		t.Fatalf("status: %+v, %v", st, err)
	}

	spec.Seed = 2
	_, err = target.Submit(spec)
	var rej *Rejection
	if !errors.As(err, &rej) {
		t.Fatalf("second submit err = %v, want *Rejection", err)
	}
	if rej.StatusCode != 429 || rej.Code != "queue_full" || rej.RetryAfterSec < 1 {
		t.Fatalf("rejection = %+v; want 429 queue_full with Retry-After", rej)
	}
	if !rej.Overload() || !isOverload(rej) {
		t.Fatal("a 429 rejection must classify as overload")
	}
	if (&Rejection{StatusCode: 503}).Overload() {
		t.Fatal("a 503 is not admission back-pressure")
	}
}
