// Package report is outside the single-threaded set: bare goroutines
// and coroutines are legal here (host-side rendering may fan out freely).
package report

import "iter"

func fanOut(fns []func()) {
	for _, fn := range fns {
		go fn()
	}
}

func first(seq iter.Seq[int]) (int, bool) {
	next, stop := iter.Pull(seq)
	defer stop()
	return next()
}
