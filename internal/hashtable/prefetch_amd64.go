package hashtable

// prefetchBucket issues PREFETCHT0 on both cache lines of b.
//
//go:noescape
func prefetchBucket(b *bucket)
