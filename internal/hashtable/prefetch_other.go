//go:build !amd64

package hashtable

// prefetchBucket does nothing: only amd64 has the prefetch.
func prefetchBucket(*bucket) {}
