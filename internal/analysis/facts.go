package analysis

import (
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"sync"
)

// A Fact is a message an analyzer attaches to a package or to one of its
// objects while analyzing it, for later consumption when a downstream
// package (or a downstream analyzer, via Requires) is analyzed.
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
	// Fact is the stored fact; consumers read it and never mutate it.
	Fact Fact
}

// factKey addresses one fact: the exporting package, the object within it
// ("" for package-level facts), and the registered fact type.
type factKey struct {
	pkg string
	obj string
	typ string
}

// FactSet is the driver's fact database. Facts never leave the process,
// so each exported Fact is stored as the value the analyzer passed; an
// import copies the stored struct into the caller's value. Consumers only
// read what they import (a shallow copy shares slices with the store).
type FactSet struct {
	//lockorder:level 90
	mu    sync.Mutex
	types map[string]reflect.Type
	facts map[factKey]Fact
}

// NewFactSet returns an empty fact database with the fact types of every
// analyzer in schedule registered.
func NewFactSet(schedule []*Analyzer) *FactSet {
	fs := &FactSet{
		types: make(map[string]reflect.Type),
		facts: make(map[factKey]Fact),
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

// export validates and stores one fact.
func (fs *FactSet) export(pkg, obj string, f Fact) error {
	name := typeName(f)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if t, ok := fs.types[name]; !ok || t != reflect.TypeOf(f) {
		return fmt.Errorf("fact type %T is not declared in any scheduled analyzer's FactTypes", f)
	}
	fs.facts[factKey{pkg, obj, name}] = f
	return nil
}

// importInto copies the addressed fact into f, reporting whether it was
// present.
func (fs *FactSet) importInto(pkg, obj string, f Fact) bool {
	fs.mu.Lock()
	stored, ok := fs.facts[factKey{pkg, obj, typeName(f)}]
	fs.mu.Unlock()
	if ok {
		reflect.ValueOf(f).Elem().Set(reflect.ValueOf(stored).Elem())
	}
	return ok
}

// AllPackageFacts returns every package-level fact in the set, sorted by
// package path then fact type for deterministic consumers (the lock-order
// DOT artifact diffs stably across runs).
func (fs *FactSet) AllPackageFacts() []PackageFact {
	fs.mu.Lock()
	var keys []factKey
	for k := range fs.facts {
		if k.obj == "" {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pkg != keys[j].pkg {
			return keys[i].pkg < keys[j].pkg
		}
		return keys[i].typ < keys[j].typ
	})
	out := make([]PackageFact, len(keys))
	for i, k := range keys {
		out[i] = PackageFact{Path: k.pkg, Fact: fs.facts[k]}
	}
	fs.mu.Unlock()
	return out
}

// ObjectKey names an object within its package for fact addressing:
// "Name" for package-level functions and variables, "Type.Method" for
// methods (pointer and value receivers collapse to the same key). A
// dependent package sees its callees through export data, as objects
// distinct from the ones the exporting package's run attached facts to, so
// facts are addressed by this name rather than by object pointer.
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
