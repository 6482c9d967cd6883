package poolsafe

func leakInLiteral(p *pool, run func(func())) {
	run(func() {
		w := p.Get() // want `not returned with Put on every path`
		w.b = nil
	})
}

func okRange(p *pool, xs []int) {
	for range xs {
		w := p.Get()
		p.Put(w)
	}
}
