package counts_test

import (
	"testing"

	"xtest/tally"
)

func TestTotal(t *testing.T) {
	total := 0
	for _, n := range tally.Of("a", "b", "a").Counts() {
		total += n
	}
	if total != 3 || tally.Of("a").Count("a") != 1 {
		t.Fail()
	}
}
