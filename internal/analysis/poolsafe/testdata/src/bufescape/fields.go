package bufescape

import "gflink/internal/membuf"

// --- a field store escapes, also through a local pointer into a slot ---

type table struct{ entries []*sink }

func slotField(t *table, i int, b *membuf.HBuffer) {
	e := t.entries[i]
	e.view = b.Bytes() // want `stored in a struct field`
}

func rangeField(t *table, b *membuf.HBuffer) {
	for _, e := range t.entries {
		e.view = b.Bytes() // want `stored in a struct field`
	}
}

func copiedPointerField(dst *sink, b *membuf.HBuffer) {
	d := dst
	d.view = b.Bytes() // want `stored in a struct field`
}
