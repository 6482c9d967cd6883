//go:build go1.23

// The constraint raises this file's language version above the module's
// go line: iter.Pull is new in Go 1.23.

package vclock

import "iter"

// coroutine returns the resume function of a coroutine running body. The
// coroutine does not start until the first resume, and each call of
// body's yield switches back to the resumer. A process always runs to
// completion on a normal Run, so the coroutine's stop function is never
// needed.
func coroutine(body func(yield func(struct{}) bool)) func() (struct{}, bool) {
	next, _ := iter.Pull(body)
	return next
}
