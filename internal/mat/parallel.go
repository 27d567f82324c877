package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parBlock is the row-claim granularity of ParRange: small enough to balance
// ragged work (triangular Gram assembly, variable-length substitutions),
// large enough that the atomic claim is amortized.
const parBlock = 8

// ParRange runs fn over disjoint sub-ranges covering [0,n) on up to workers
// goroutines (workers ≤ 0 selects GOMAXPROCS). Blocks are claimed from an
// atomic counter, so load balances even when per-row cost varies; every
// index is processed exactly once and ParRange returns after all of them
// finish. Results are deterministic whenever fn's writes are disjoint by
// index, which is how the batched kernel math keeps parallel output
// bit-identical to serial.
func ParRange(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > (n+parBlock-1)/parBlock {
		workers = (n + parBlock - 1) / parBlock
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(parBlock)) - parBlock
				if lo >= n {
					return
				}
				hi := lo + parBlock
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}
