package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// A Fact is a serializable observation one analyzer run exports about
// one of a package's package-level objects, to be imported when a
// dependent package is analyzed — the mechanism that turns the suite's
// single-package analyzers into interprocedural, whole-program ones
// (mirroring golang.org/x/tools/go/analysis facts).
//
// Facts must be JSON-marshalable structs; implement the marker method
// on the pointer type:
//
//	type Retains struct{ Params []int }
//	func (*Retains) AFact() {}
//
// Identity is structural, not pointer-based: facts are keyed by
// (package path, object key, fact type), where the object key is a
// stable textual path ("FuncName" or "Recv.Method" — see ObjectKey).
// That makes facts survive both JSON round trips between `go vet`
// compilation units and the loader re-type-checking a package twice
// (once as an import, once as a test-augmented target).
type Fact interface {
	AFact() // dummy marker method
}

// factKey addresses one fact in a store.
type factKey struct {
	pkg string
	obj string
	typ string
}

// FactStore holds every fact exported so far in a driver run. One store
// is shared across all packages of a run so facts flow from
// dependencies to dependents; it is not safe for concurrent use (the
// driver is single-threaded by design — see the determinism notes in
// driver.go).
type FactStore struct {
	m map[factKey]json.RawMessage
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]json.RawMessage)}
}

func factType(f Fact) string {
	t := reflect.TypeOf(f)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.String()
}

// ObjectKey returns the stable textual path of a package-level object:
// "Name" for functions, types, and vars, "Recv.Name" for methods. Only
// package-level objects have keys; local objects return "".
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return n.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	// Package-level objects live in the package scope.
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Name()
}

// put marshals and stores one fact.
func (s *FactStore) put(pkg, obj string, fact Fact) error {
	data, err := json.Marshal(fact)
	if err != nil {
		return fmt.Errorf("analysis: marshaling fact %s: %w", factType(fact), err)
	}
	s.m[factKey{pkg: pkg, obj: obj, typ: factType(fact)}] = data
	return nil
}

// get unmarshals one fact into the caller's pointer, reporting whether
// it was present.
func (s *FactStore) get(pkg, obj string, fact Fact) bool {
	data, ok := s.m[factKey{pkg: pkg, obj: obj, typ: factType(fact)}]
	if !ok {
		return false
	}
	return json.Unmarshal(data, fact) == nil
}

// factRecord is the serialized form of one fact (the vetx wire format
// used between `go vet` compilation units).
type factRecord struct {
	Pkg  string          `json:"pkg"`
	Obj  string          `json:"obj,omitempty"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// Encode serializes every fact in the store, sorted for byte-stable
// output. Facts of dependencies are included, so encoding after
// analyzing one unit propagates transitive facts through direct-import
// vetx files exactly as unitchecker does.
func (s *FactStore) Encode() []byte {
	recs := make([]factRecord, 0, len(s.m))
	for k, v := range s.m {
		recs = append(recs, factRecord{Pkg: k.pkg, Obj: k.obj, Type: k.typ, Data: v})
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		return a.Type < b.Type
	})
	data, err := json.Marshal(recs)
	if err != nil {
		// Raw messages re-marshal without error by construction.
		panic(err)
	}
	return data
}

// Decode merges previously encoded facts into the store. Unknown input
// is rejected; duplicate keys keep the incoming value (facts are
// deterministic functions of their package, so duplicates agree).
func (s *FactStore) Decode(data []byte) error {
	var recs []factRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return fmt.Errorf("analysis: decoding facts: %w", err)
	}
	for _, r := range recs {
		s.m[factKey{pkg: r.Pkg, obj: r.Obj, typ: r.Type}] = r.Data
	}
	return nil
}

// Len reports the number of stored facts.
func (s *FactStore) Len() int { return len(s.m) }

// ExportObjectFact associates fact with a package-level object
// (typically a function or method of the package under analysis).
// Objects without a stable key (locals) are silently skipped.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return
	}
	key := ObjectKey(obj)
	if key == "" {
		return
	}
	if err := p.facts.put(obj.Pkg().Path(), key, fact); err != nil {
		panic(err)
	}
}

// ImportObjectFact copies the fact previously exported for obj (by this
// pass or the analysis of another package) into the provided pointer,
// reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	key := ObjectKey(obj)
	if key == "" {
		return false
	}
	return p.facts.get(obj.Pkg().Path(), key, fact)
}
