//go:build go1.23

// The constraint raises this file's language version above the module's
// go line: iter.Pull is new in Go 1.23.

package vclock

import "iter"

// coroutine returns the resume and stop functions of a coroutine
// running body. The coroutine does not start until the first resume,
// and each call of body's yield switches back to the resumer. A process
// always runs to completion on a normal Run, so it never needs stop; a
// task's borrowed stack (Task.Call) loops forever and is stopped when
// the task exits.
func coroutine(body func(yield func(struct{}) bool)) (resume func() (struct{}, bool), stop func()) {
	return iter.Pull(body)
}
