package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"sync"
)

// A Fact is a serializable message an analyzer attaches to a package or to
// one of its objects while analyzing it, for later consumption when a
// downstream package (or a downstream analyzer, via Requires) is analyzed.
// Mirroring x/tools, fact types are pointers to structs and carry the
// AFact marker method; unlike x/tools, facts are namespaced by their Go
// type alone rather than by (analyzer, type), so an analyzer listed in
// another's Requires may import the facts its prerequisite exported.
type Fact interface {
	AFact()
}

// PackageFact pairs one package-level fact with the package that exported
// it, for FactSet/Pass.AllPackageFacts enumeration.
type PackageFact struct {
	// Path is the import path of the exporting package.
	Path string
	// Fact is a freshly decoded copy of the fact.
	Fact Fact
}

// factKey addresses one fact: the exporting package, the object within it
// ("" for package-level facts), and the registered fact type.
type factKey struct {
	pkg string
	obj string
	typ string
}

// FactSet is the driver's fact database. Facts are stored gob-encoded —
// every export round-trips through gob immediately, so a fact type that
// does not serialize fails loudly at the export site (not when it first
// crosses a process boundary via a vetx file), and every import decodes a
// fresh copy, so mutation by one consumer can never corrupt another's
// view.
type FactSet struct {
	//lockorder:level 90
	mu    sync.Mutex
	types map[string]reflect.Type
	facts map[factKey][]byte
}

// NewFactSet returns an empty fact database with the fact types of every
// analyzer in schedule registered.
func NewFactSet(schedule []*Analyzer) *FactSet {
	fs := &FactSet{
		types: make(map[string]reflect.Type),
		facts: make(map[factKey][]byte),
	}
	for _, a := range schedule {
		for _, f := range a.FactTypes {
			fs.register(f)
		}
	}
	return fs
}

// typeName returns the registration name of a fact value's type,
// qualified by the declaring package so fact types from different
// analyzer packages can never collide.
func typeName(f Fact) string {
	t := reflect.TypeOf(f)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.PkgPath() + "." + t.Name()
}

func (fs *FactSet) register(f Fact) {
	t := reflect.TypeOf(f)
	if t.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("fact type %T must be a pointer to a struct", f))
	}
	fs.types[typeName(f)] = t
}

// export validates, encodes, and stores one fact.
func (fs *FactSet) export(pkg, obj string, f Fact) error {
	name := typeName(f)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.types[name]; !ok {
		return fmt.Errorf("fact type %T is not declared in any scheduled analyzer's FactTypes", f)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).EncodeValue(reflect.ValueOf(f).Elem()); err != nil {
		return fmt.Errorf("gob-encoding fact %T: %v", f, err)
	}
	fs.facts[factKey{pkg, obj, name}] = buf.Bytes()
	return nil
}

// importInto decodes the addressed fact into f, reporting whether it was
// present.
func (fs *FactSet) importInto(pkg, obj string, f Fact) (bool, error) {
	name := typeName(f)
	fs.mu.Lock()
	data, ok := fs.facts[factKey{pkg, obj, name}]
	fs.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).DecodeValue(reflect.ValueOf(f).Elem()); err != nil {
		return false, fmt.Errorf("gob-decoding fact %s for %s.%s: %v", name, pkg, obj, err)
	}
	return true, nil
}

// AllPackageFacts decodes every package-level fact in the set, sorted by
// package path then fact type for deterministic consumers (the lock-order
// DOT artifact diffs stably across runs).
func (fs *FactSet) AllPackageFacts() []PackageFact {
	fs.mu.Lock()
	keys := make([]factKey, 0, len(fs.facts))
	for k := range fs.facts {
		if k.obj == "" {
			keys = append(keys, k)
		}
	}
	fs.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pkg != keys[j].pkg {
			return keys[i].pkg < keys[j].pkg
		}
		return keys[i].typ < keys[j].typ
	})
	var out []PackageFact
	for _, k := range keys {
		t := fs.types[k.typ]
		f := reflect.New(t.Elem()).Interface().(Fact)
		if ok, err := fs.importInto(k.pkg, "", f); err == nil && ok {
			out = append(out, PackageFact{Path: k.pkg, Fact: f})
		}
	}
	return out
}

// ObjectKey names an object within its package for fact addressing:
// "Name" for package-level functions and variables, "Type.Method" for
// methods (pointer and value receivers collapse to the same key). The key
// is stable across processes, which position-based identity is not — it
// is what lets vetx fact files written while analyzing one package be
// resolved against objects re-imported from export data in another.
func ObjectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return named.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return obj.Name()
}

// wireFact is the serialized form of one fact for vetx files.
type wireFact struct {
	Pkg, Obj, Type string
	Data           []byte
}

// Encode serializes the whole fact set (deterministically ordered) for a
// vetx file, so facts flow across the per-package process boundaries of
// the go vet -vettool protocol exactly as they flow in memory in the
// standalone driver.
func (fs *FactSet) Encode() ([]byte, error) {
	fs.mu.Lock()
	wire := make([]wireFact, 0, len(fs.facts))
	for k, data := range fs.facts {
		wire = append(wire, wireFact{Pkg: k.pkg, Obj: k.obj, Type: k.typ, Data: data})
	}
	fs.mu.Unlock()
	sort.Slice(wire, func(i, j int) bool {
		a, b := wire[i], wire[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		return a.Type < b.Type
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return nil, fmt.Errorf("encoding fact set: %v", err)
	}
	return buf.Bytes(), nil
}

// Decode merges a serialized fact set (a dependency's vetx file) into fs.
// Facts of unregistered types are skipped, not rejected: a dependency may
// have been analyzed by a larger analyzer suite than this run schedules.
func (fs *FactSet) Decode(data []byte) error {
	if len(data) == 0 {
		return nil // empty vetx: dependency exported nothing
	}
	var wire []wireFact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
		return fmt.Errorf("decoding fact set: %v", err)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, w := range wire {
		if _, ok := fs.types[w.Type]; !ok {
			continue
		}
		fs.facts[factKey{w.Pkg, w.Obj, w.Type}] = w.Data
	}
	return nil
}
