package service

import (
	"fmt"
	"time"
)

// DefaultTenant is the Config.Tenants key whose budget applies to every
// tenant without an explicit entry (including the anonymous empty tenant).
// Absent, unlisted tenants are unbudgeted.
const DefaultTenant = "*"

// TenantBudget caps one tenant's use of the service. Zero values leave the
// corresponding dimension unlimited.
type TenantBudget struct {
	// MaxInFlight bounds the tenant's queued-plus-running jobs.
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// SubmitRate is a token-bucket refill rate in submissions per second;
	// SubmitBurst is the bucket depth (default: max(1, ceil(SubmitRate))).
	// A submission needs one token; an empty bucket rejects with a
	// Retry-After hint of the refill time.
	SubmitRate  float64 `json:"submit_rate,omitempty"`
	SubmitBurst int     `json:"submit_burst,omitempty"`
	// MaxClusterSec caps the cumulative simulated cluster seconds the
	// tenant's finished jobs have consumed. Once crossed, further submits
	// are rejected until the operator raises the budget — cluster time is
	// the resource LOCAT exists to conserve, so it is the one budget that
	// does not refill on its own.
	MaxClusterSec float64 `json:"max_cluster_sec,omitempty"`
}

// burst returns the effective token-bucket depth.
func (b TenantBudget) burst() float64 {
	if b.SubmitBurst > 0 {
		return float64(b.SubmitBurst)
	}
	if b.SubmitRate <= 0 {
		return 0
	}
	n := float64(int(b.SubmitRate))
	if n < b.SubmitRate {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Budget-rejection reasons; they double as the locat_admission_total
// outcome labels.
const (
	ReasonRateLimited   = "rate_limited"
	ReasonMaxInFlight   = "max_in_flight"
	ReasonClusterBudget = "cluster_budget"
)

// BudgetError rejects a submission that would exceed its tenant's budget.
// The HTTP layer maps it to 429 with code "over_budget" and a Retry-After
// header.
type BudgetError struct {
	// Tenant is the budgeted tenant ("" renders as "default").
	Tenant string
	// Reason is one of ReasonRateLimited, ReasonMaxInFlight,
	// ReasonClusterBudget.
	Reason string
	// RetryAfter estimates when retrying could succeed (0: waiting alone
	// will not help — a job must finish or the budget must be raised).
	RetryAfter time.Duration
	// Detail is the human-readable budget arithmetic.
	Detail string
}

func (e *BudgetError) Error() string {
	t := e.Tenant
	if t == "" {
		t = "default"
	}
	return fmt.Sprintf("service: tenant %s over budget (%s): %s", t, e.Reason, e.Detail)
}

// tenantState is the live accounting of one tenant under its budget. All
// fields are guarded by the service mutex.
type tenantState struct {
	budget TenantBudget
	// inFlight counts the tenant's queued + running jobs: charged on
	// admission, returned by settleLocked however the job leaves the system.
	inFlight int
	// tokens / last implement the submit-rate bucket.
	tokens float64
	last   time.Time
	// clusterSec is the cumulative simulated cluster time the tenant's
	// finished jobs consumed.
	clusterSec float64
}

// tenantLocked returns (lazily creating) the tenant's accounting state.
// Callers hold the service mutex.
func (s *Service) tenantLocked(name string) *tenantState {
	if ts, ok := s.tenants[name]; ok {
		return ts
	}
	b, ok := s.cfg.Tenants[name]
	if !ok {
		b = s.cfg.Tenants[DefaultTenant]
	}
	ts := &tenantState{budget: b, tokens: b.burst(), last: s.now()}
	s.tenants[name] = ts
	return ts
}

// admitLocked checks every budget dimension without consuming anything;
// chargeLocked settles the cost once the submission is actually admitted.
// Split so a queue-full refusal does not burn a rate token.
func (ts *tenantState) admitLocked(tenant string, now time.Time) error {
	b := ts.budget
	if b.MaxClusterSec > 0 && ts.clusterSec >= b.MaxClusterSec {
		return &BudgetError{
			Tenant: tenant, Reason: ReasonClusterBudget,
			Detail: fmt.Sprintf("%.0f of %.0f simulated cluster seconds consumed",
				ts.clusterSec, b.MaxClusterSec),
		}
	}
	if b.MaxInFlight > 0 && ts.inFlight >= b.MaxInFlight {
		return &BudgetError{
			Tenant: tenant, Reason: ReasonMaxInFlight,
			Detail: fmt.Sprintf("%d jobs in flight (limit %d)", ts.inFlight, b.MaxInFlight),
		}
	}
	if b.SubmitRate > 0 {
		// Refill before judging, so a long-idle tenant starts from a full
		// bucket rather than a stale one.
		if elapsed := now.Sub(ts.last).Seconds(); elapsed > 0 {
			ts.tokens += elapsed * b.SubmitRate
			if depth := b.burst(); ts.tokens > depth {
				ts.tokens = depth
			}
		}
		ts.last = now
		if ts.tokens < 1 {
			wait := time.Duration((1 - ts.tokens) / b.SubmitRate * float64(time.Second))
			return &BudgetError{
				Tenant: tenant, Reason: ReasonRateLimited, RetryAfter: wait,
				Detail: fmt.Sprintf("submit rate %.3g/s exceeded", b.SubmitRate),
			}
		}
	}
	return nil
}

// chargeLocked consumes one rate token and one in-flight slot for an
// admitted job.
func (ts *tenantState) chargeLocked() {
	if ts.budget.SubmitRate > 0 {
		ts.tokens--
	}
	ts.inFlight++
}
