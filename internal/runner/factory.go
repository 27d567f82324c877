package runner

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"locat/internal/sparksim"
)

// A backend spec is the one-string surface every entry point (locat.Options
// Backend, locat -backend, locat-serve -backend, locat-bench -backend)
// accepts:
//
//	sim                          simulator (default; "" and "sparksim" alias)
//	record=PATH                  simulator, recording every run to PATH
//	replay=PATH                  replay PATH, fail loudly on any miss
//	replay=PATH,miss=nearest     replay PATH, nearest-neighbor fallback
//	replay=PATH,miss=nearest,tol=0.05   …bounded by a distance tolerance
//	sparkrest=URL                submit runs to a spark-submit/REST gateway
//
// PATHs ending in ".gz" are compressed/decompressed transparently.

// Factory materializes runners for one parsed backend spec. A session that
// needs several independent runners (a tuner plus its noiseless validation
// runner, or many service jobs) creates each under its own stream key;
// record-mode factories share one trace sink across streams and replay-mode
// factories share one parsed trace, so a whole multi-runner program can be
// recorded into — and replayed from — a single file. Close flushes the
// sink; it must be called to finish a recording.
type Factory struct {
	kind string // "sim", "record", "replay", "sparkrest"
	path string
	url  string
	ropt ReplayOptions

	mu     sync.Mutex
	sink   *TraceSink
	parsed []TraceEntry // replay mode: the trace, decoded once
}

// ParseSpec validates and parses a backend spec.
func ParseSpec(spec string) (*Factory, error) {
	f := &Factory{}
	switch {
	case spec == "" || spec == "sim" || spec == "sparksim":
		f.kind = "sim"
	case strings.HasPrefix(spec, "record="):
		f.kind = "record"
		f.path = strings.TrimPrefix(spec, "record=")
		if f.path == "" {
			return nil, fmt.Errorf("runner: backend spec %q: record needs a trace path", spec)
		}
	case strings.HasPrefix(spec, "replay="):
		f.kind = "replay"
		rest := strings.TrimPrefix(spec, "replay=")
		parts := strings.Split(rest, ",")
		f.path = parts[0]
		if f.path == "" {
			return nil, fmt.Errorf("runner: backend spec %q: replay needs a trace path", spec)
		}
		for _, p := range parts[1:] {
			switch {
			case p == "miss=fail":
				f.ropt.Miss = MissFail
			case p == "miss=nearest":
				f.ropt.Miss = MissNearest
			case strings.HasPrefix(p, "tol="):
				tol, err := strconv.ParseFloat(strings.TrimPrefix(p, "tol="), 64)
				if err != nil || !(tol >= 0) { // also rejects NaN
					return nil, fmt.Errorf("runner: backend spec %q: bad tolerance %q", spec, p)
				}
				f.ropt.Tolerance = tol
			default:
				return nil, fmt.Errorf("runner: backend spec %q: unknown replay option %q", spec, p)
			}
		}
	case strings.HasPrefix(spec, "sparkrest="):
		f.kind = "sparkrest"
		f.url = strings.TrimPrefix(spec, "sparkrest=")
		if f.url == "" {
			return nil, fmt.Errorf("runner: backend spec %q: sparkrest needs a URL", spec)
		}
	default:
		return nil, fmt.Errorf("runner: unknown backend spec %q (want sim, record=PATH, replay=PATH[,miss=nearest[,tol=T]], or sparkrest=URL)", spec)
	}
	return f, nil
}

// New materializes one runner for the given cluster and seed under the
// stream key. Stream keys must be deterministic across record and replay
// runs of the same program (job IDs, experiment IDs — not timestamps);
// simOpts tune the underlying simulator where one exists (noise overrides
// used by the analysis experiments) and are ignored by sparkrest and
// encoded in the recorded results under record.
func (f *Factory) New(cluster *sparksim.Cluster, seed int64, stream string, simOpts ...sparksim.Option) (Runner, error) {
	switch f.kind {
	case "sim":
		return NewSim(sparksim.New(cluster, seed, simOpts...)), nil
	case "record":
		f.mu.Lock()
		if f.sink == nil {
			sink, err := CreateTraceSink(f.path)
			if err != nil {
				f.mu.Unlock()
				return nil, err
			}
			f.sink = sink
		}
		sink := f.sink
		f.mu.Unlock()
		return NewRecorder(NewSim(sparksim.New(cluster, seed, simOpts...)), sink, stream), nil
	case "replay":
		entries, err := f.loadTrace()
		if err != nil {
			return nil, err
		}
		return NewReplayerFromEntries(cluster.Space(), entries, stream, f.ropt)
	case "sparkrest":
		return NewSparkRest(f.url, cluster.Space()), nil
	}
	return nil, fmt.Errorf("runner: unknown backend kind %q", f.kind)
}

// loadTrace decodes the replay trace once and shares it across every
// runner the factory materializes (each replaying Cache keeps only its own
// stream's consumption state).
func (f *Factory) loadTrace() ([]TraceEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.parsed == nil {
		entries, err := TraceEntries(f.path)
		if err != nil {
			return nil, err
		}
		f.parsed = entries
	}
	return f.parsed, nil
}

// Close flushes a recording factory's trace sink (a no-op elsewhere).
func (f *Factory) Close() error {
	f.mu.Lock()
	sink := f.sink
	f.sink = nil
	f.mu.Unlock()
	if sink != nil {
		return sink.Close()
	}
	return nil
}
