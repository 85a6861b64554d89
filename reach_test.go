//go:build !race

// The function rule of DESIGN §3a *Packages and functions*: a function
// or method declared under internal/ exists only if a program under
// cmd/, bench/ or examples/ reaches it, or reachAllow names it with a
// reason. The option rule of DESIGN §3a *Options*: an exported field of
// a Config/Options struct under internal/ exists only if programs set it
// to more than one value, or optionAllow names it with a reason. Both
// checks share one type-check of the module with go/types (stdlib from
// source); the function check walks every function body from the
// programs' roots. They are built out under the race detector, which
// only slows the type-check.
package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow names the functions under internal/ that no program
// reaches but that stay. A reason is one of two kinds: (a) a test seam
// another package's test uses to drive behaviour a program runs, or (b)
// paper API that DESIGN §2 cites and a test pins. A function whose only
// callers are its own tests is neither: delete it with those tests.
// What an entry calls is kept with it.
var reachAllow = map[string]string{
	"cdr.Decoder.Bool":                 "(b) a CDR primitive of DESIGN §2's byte-level CDR; TestPrimitiveRoundTrip pins it",
	"cdr.Decoder.Float":                "(b) a CDR primitive of DESIGN §2's byte-level CDR; TestPrimitiveRoundTrip pins it",
	"cdr.Decoder.Long":                 "(b) a CDR primitive of DESIGN §2's byte-level CDR; TestPrimitiveRoundTrip pins it",
	"cdr.Encoder.PutBool":              "(b) a CDR primitive of DESIGN §2's byte-level CDR; TestPrimitiveRoundTrip pins it",
	"cdr.Encoder.PutFloat":             "(b) a CDR primitive of DESIGN §2's byte-level CDR; TestPrimitiveRoundTrip pins it",
	"cdr.Encoder.PutLong":              "(b) a CDR primitive of DESIGN §2's byte-level CDR; TestPrimitiveRoundTrip pins it",
	"imgproc.Algorithm.Detect":         "(b) DESIGN §2's real Kirsch/Prewitt/Sobel convolutions; TestDetectors* pin them",
	"netsim.Link.SetDown":              "(a) core's TestInvocationSurvivesLinkFlap flaps links under live ORB traffic",
	"netsim.Link.SetFaults":            "(a) transport's corruption, duplication and reassembly tests inject faults with it",
	"netsim.Link.SetLossRate":          "(a) transport's reliability properties and core's lossy-link tests drop packets with it",
	"netsim.Reservation.Release":       "(b) RSVP teardown of DESIGN §2's PATH/RESV signalling; TestRSVPReserveAndRelease pins it",
	"quo.MeasuredCond.Set":             "(a) pubsub's TestBindContractDegradesOnRegion drives the contract's regions with it",
	"quo.NewMeasuredCond":              "(a) pubsub's TestBindContractDegradesOnRegion builds the condition it drives",
	"quo.ParseContract":                "(b) QuO's contract description language; TestParseContract* pin it",
	"sim.Kernel.Pending":               "(a) slo's and monitor's tests check no timer outlives a stopped tracker or sampler",
	"sim.Kernel.RunFor":                "(a) advances the kernel in netsim, rtcorba, pubsub, monitor, slo and ft tests",
	"transport.StreamConn.DSCP":        "(a) orb's TestDSCPFollowsNetworkMapping reads the codepoint the ORB set on its connection",
	"transport.StreamConn.RecvTimeout": "(a) the sim-ORB side of wire's interop tests reads replies with it",
}

// maxReachAllow caps reachAllow (ROADMAP item 13).
const maxReachAllow = 20

// optionAllow names the exported fields of Config/Options structs under
// internal/ that no program sets, or that every program sets to one
// value, but that stay: each is a seam the named test cannot run
// without (DESIGN §3a *Options*).
var optionAllow = map[string]string{
	"breaker.Config.ProbeTimeout":          "TestHalfOpenSingleProbeRace holds each half-open window past its 1 ns cooldown, so racing callers meet one probe",
	"orb.Config.ByteOrder":                 "wire's TestInteropFTDedupDifferential compares the sim ORB's exception bytes with the wire server's, both little-endian",
	"trace/sampling.Config.AlwaysKeep":     "TestSamplerAdaptiveBudget switches the always-keep path off to price the head path alone",
	"trace/sampling.Config.TailMin":        "TestSamplerAdaptiveBudget switches the tail path off to price the head path alone",
	"wire.ChannelHostConfig.NewPushClient": "TestPubSubOverWire and every pubsubLoopback test push over a net.Pipe instead of a socket",
	"wire.ClientConfig.Breaker":            "TestBreakerOpensOnDialFailure shortens the wall-clock cooldown; TestBandFailedDialIsSharedThenRetried switches the breaker off",
	"wire.GroupConfig.BackoffBase":         "TestGroupRetryBudgetExhausts shortens the wall-clock backoff between members",
	"wire.GroupConfig.Dial":                "TestGroupFailoverOnDialError and every fabric group test dial members over net.Pipe",
	"wire.ServerConfig.ByteOrder":          "wire's TestInteropSimBytesIntoWireServer replays sim-ORB bytes in both byte orders",
}

// maxOptionAllow caps optionAllow.
const maxOptionAllow = 10

func TestEveryFunctionReachable(t *testing.T) {
	if len(reachAllow) > maxReachAllow {
		t.Errorf("reachAllow has %d entries, the cap is %d", len(reachAllow), maxReachAllow)
	}
	m, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if problems := unreachedFuncs(m, reachAllow); len(problems) > 0 {
		t.Errorf("%d function(s) under internal/ that no program under cmd/, bench/ or examples/ reaches "+
			"(delete them, or allowlist a test seam or paper API in reachAllow):\n\t%s",
			len(problems), strings.Join(problems, "\n\t"))
	}
}

// TestEveryOptionSet is the option rule of DESIGN §3a *Options*: every
// exported field of an exported Config/Options struct under internal/
// is set by a program, and not to one constant by all of them, unless
// optionAllow names it.
func TestEveryOptionSet(t *testing.T) {
	if len(optionAllow) > maxOptionAllow {
		t.Errorf("optionAllow has %d entries, the cap is %d", len(optionAllow), maxOptionAllow)
	}
	m, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	problems, fields := unsetOptions(m, optionAllow)
	t.Logf("%d exported fields of Config/Options structs under internal/", fields)
	if len(problems) > 0 {
		t.Errorf("%d option field(s) that break the option rule "+
			"(delete them, make them constants, or allowlist a test seam in optionAllow):\n\t%s",
			len(problems), strings.Join(problems, "\n\t"))
	}
}

// TestReachabilityFixture runs both checks on testdata/reach, a module
// with one program. Of its functions (one reached, one
// interface-dispatched method, one allowlisted seam, one exported
// function that only its own test calls, and the method of a type that
// only a blank assertion names) only the last two may be reported; of
// its lib.Config fields (one the program sets, one only lib_test.go
// sets, one the program's only literal sets to a constant, one
// allowlisted) only the second and third.
func TestReachabilityFixture(t *testing.T) {
	m, err := loadModule(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	problems := unreachedFuncs(m, map[string]string{"lib.Seam": "(a) the fixture's seam"})
	if len(problems) != 2 || !strings.HasPrefix(problems[0], "lib.Ghost.Area ") ||
		!strings.HasPrefix(problems[1], "lib.TestOnly ") {
		t.Errorf("function check reported %q, want exactly lib.Ghost.Area and lib.TestOnly", problems)
	}
	problems, fields := unsetOptions(m, map[string]string{"lib.Config.Seam": "the fixture's seam"})
	if fields != 4 || len(problems) != 2 || !strings.HasPrefix(problems[0], "lib.Config.OneValue ") ||
		!strings.HasPrefix(problems[1], "lib.Config.TestOnly ") {
		t.Errorf("option check counted %d fields and reported %q, want 4 and exactly lib.Config.OneValue and lib.Config.TestOnly",
			fields, problems)
	}
}

// listedPkg is the part of `go list -json` the checker reads.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Module     *struct{ Path string }
}

// stdDynamic are the stdlib interfaces whose methods the standard
// library calls by dynamic dispatch. A module type implementing one
// keeps those methods, as it does for error and module interfaces.
var stdDynamic = []struct{ pkg, name string }{
	{"fmt", "Stringer"},
	{"net/http", "Handler"},
	{"encoding/json", "Marshaler"},
	{"io", "Reader"},
	{"io", "Writer"},
	{"io", "Closer"},
	{"sort", "Interface"},
	{"container/heap", "Interface"},
}

// module is a type-checked module: the non-test files of every package
// `go list ./...` names, with one types.Info over all of them.
type module struct {
	path  string // module path
	paths []string
	*loader
}

// modules caches loadModule by directory, so the checks that share a
// module pay for its type-check once.
var modules = map[string]*module{}

// loadModule type-checks the module rooted at dir.
func loadModule(dir string) (*module, error) {
	if m := modules[dir]; m != nil {
		return m, nil
	}
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	listed := map[string]*listedPkg{}
	m := &module{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		listed[p.ImportPath] = p
		m.paths = append(m.paths, p.ImportPath)
		if p.Module != nil {
			m.path = p.Module.Path
		}
	}

	// The source importer reads build.Default: without cgo it needs no C
	// compiler and takes the pure-Go files of net and os/user.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	m.loader = &loader{
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		listed: listed,
		pkgs:   map[string]*types.Package{},
		files:  map[string][]*ast.File{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	for _, path := range m.paths {
		if _, err := m.Import(path); err != nil {
			return nil, err
		}
	}
	modules[dir] = m
	return m, nil
}

// unreachedFuncs returns, sorted, every function or method declared in a
// non-test file under the module's internal/ that no program reaches and
// allow does not name, as "pkg.Recv.Name (file:line)". A stale allowlist
// entry (a program reaches it, or it is not declared) is reported too.
func unreachedFuncs(m *module, allow map[string]string) []string {
	// Index every declared function, and queue the roots: main and init
	// of each program, every init, every package-level initialiser but a
	// blank one (var _ I = T{} asserts, it builds nothing a program runs).
	decls := map[*types.Func]*ast.FuncDecl{}
	var work []ast.Node
	for _, path := range m.paths {
		prog := m.listed[path].Name == "main" && (strings.HasPrefix(path, m.path+"/cmd/") ||
			strings.HasPrefix(path, m.path+"/bench/") || strings.HasPrefix(path, m.path+"/examples/"))
		for _, f := range m.files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if fn, ok := m.info.Defs[d.Name].(*types.Func); ok {
						decls[fn] = d
					}
					if d.Recv == nil && (d.Name.Name == "init" || prog && d.Name.Name == "main") {
						work = append(work, d)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						for _, spec := range d.Specs {
							if !blankSpec(spec.(*ast.ValueSpec)) {
								work = append(work, spec)
							}
						}
					}
				}
			}
		}
	}

	// Dynamic dispatch may call a method of a type the reached code
	// names or holds a value of: every method an interface of
	// dispatchIfaces names, for each such type that implements it.
	ifaces := dispatchIfaces(m.loader)
	reached := map[*types.Func]bool{}
	used := map[*types.TypeName]bool{}
	var usedQueue []*types.TypeName
	mark := func(fn *types.Func) {
		fn = fn.Origin()
		if !reached[fn] {
			reached[fn] = true
			if d := decls[fn]; d != nil {
				work = append(work, d)
			}
		}
	}
	useType := func(t types.Type) {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok {
			return
		}
		tn := n.Origin().Obj()
		if !used[tn] && tn.Pkg() != nil && m.pkgs[tn.Pkg().Path()] != nil {
			used[tn] = true
			usedQueue = append(usedQueue, tn)
		}
	}
	walk := func() {
		for len(work) > 0 || len(usedQueue) > 0 {
			for len(work) > 0 {
				n := work[len(work)-1]
				work = work[:len(work)-1]
				ast.Inspect(n, func(n ast.Node) bool {
					if e, ok := n.(ast.Expr); ok {
						if tv, ok := m.info.Types[e]; ok {
							useType(tv.Type)
						}
					}
					if id, ok := n.(*ast.Ident); ok {
						switch obj := m.info.Uses[id].(type) {
						case *types.Func:
							mark(obj)
						case *types.TypeName:
							useType(obj.Type())
						}
					}
					return true
				})
			}
			for len(usedQueue) > 0 {
				tn := usedQueue[len(usedQueue)-1]
				usedQueue = usedQueue[:len(usedQueue)-1]
				for _, fn := range dispatchedMethods(tn, ifaces) {
					mark(fn)
				}
			}
		}
	}
	walk()

	// Name what is declared under internal/; what a program reaches is
	// settled, so the allowlist can now root what its entries call.
	keys := map[*types.Func]string{}
	byKey := map[string]*types.Func{}
	for fn, d := range decls {
		path := fn.Pkg().Path()
		if !strings.HasPrefix(path, m.path+"/internal/") || d.Name.Name == "init" || d.Name.Name == "_" {
			continue
		}
		key := strings.TrimPrefix(path, m.path+"/internal/") + "."
		if d.Recv != nil {
			key += recvName(d.Recv.List[0].Type) + "."
		}
		key += d.Name.Name
		keys[fn], byKey[key] = key, fn
	}
	var problems []string
	for key := range allow {
		switch fn := byKey[key]; {
		case fn == nil:
			problems = append(problems, key+" (allowlisted, but not declared)")
		case reached[fn]:
			problems = append(problems, key+" (allowlisted, but a program reaches it)")
		default:
			mark(fn)
		}
	}
	walk()
	for fn, key := range keys {
		if !reached[fn] {
			problems = append(problems, key+" ("+m.where(decls[fn].Pos())+")")
		}
	}
	sort.Strings(problems)
	return problems
}

// blankSpec reports whether a var spec declares only blank names.
func blankSpec(s *ast.ValueSpec) bool {
	for _, id := range s.Names {
		if id.Name != "_" {
			return false
		}
	}
	return true
}

// unsetOptions checks the option rule over every exported field of every
// exported struct under the module's internal/ whose name ends in Config
// or Options. It returns, sorted, each field that breaks it and allow
// does not name, as "pkg.Struct.Field (why; file:line)", plus the number
// of fields checked. A field breaks the rule when (1) no composite
// literal names it and no assignment outside its own package writes it
// (the package's defaulting is not a caller), or (2) every composite
// literal of its struct sets it and every write is the same constant. A
// stale allowlist entry is reported too.
func unsetOptions(m *module, allow map[string]string) ([]string, int) {
	type option struct {
		key    string
		lits   int             // composite literals that set it
		values map[string]bool // the constants written; "" for a value that is not constant
	}
	options := map[*types.Var]*option{}
	structs := map[*types.TypeName][]*types.Var{}
	for _, path := range m.paths {
		if !strings.HasPrefix(path, m.path+"/internal/") {
			continue
		}
		scope := m.pkgs[path].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					key := strings.TrimPrefix(path, m.path+"/internal/") + "." + name + "." + f.Name()
					options[f] = &option{key: key, values: map[string]bool{}}
					structs[tn] = append(structs[tn], f)
				}
			}
		}
	}
	value := func(e ast.Expr) string {
		if tv := m.info.Types[e]; tv.Value != nil {
			return tv.Value.ExactString()
		}
		return ""
	}
	// write records that x, if it selects an option field outside the
	// field's own package, is written with v.
	write := func(path string, x ast.Expr, v string) {
		if sel, ok := x.(*ast.SelectorExpr); ok {
			if f, _ := m.info.Uses[sel.Sel].(*types.Var); options[f] != nil && f.Pkg().Path() != path {
				options[f].values[v] = true
			}
		}
	}
	lits := map[*types.TypeName]int{}
	for _, path := range m.paths {
		for _, file := range m.files[path] {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					named, _ := m.info.Types[n].Type.(*types.Named)
					if named == nil || structs[named.Obj()] == nil {
						break
					}
					lits[named.Obj()]++
					st := named.Underlying().(*types.Struct)
					for i, elt := range n.Elts {
						f, v := st.Field(i), elt
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							f, _ = m.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
							v = kv.Value
						}
						if o := options[f]; o != nil {
							o.lits++
							o.values[value(v)] = true
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						v := ""
						if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
							v = value(n.Rhs[i])
						}
						write(path, lhs, v)
					}
				case *ast.IncDecStmt:
					write(path, n.X, "")
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(path, n.X, "")
					}
				}
				return true
			})
		}
	}
	var problems []string
	declared := map[string]bool{}
	for tn, fields := range structs {
		for _, f := range fields {
			o := options[f]
			why := ""
			switch {
			case len(o.values) == 0:
				why = "no program sets it"
			case lits[tn] > 0 && o.lits == lits[tn] && len(o.values) == 1 && !o.values[""]:
				for v := range o.values {
					why = "every program sets it to " + v
				}
			}
			_, allowed := allow[o.key]
			switch {
			case allowed && why == "":
				problems = append(problems, o.key+" (allowlisted, but programs set it to more than one value)")
			case !allowed && why != "":
				problems = append(problems, fmt.Sprintf("%s (%s; %s)", o.key, why, m.where(f.Pos())))
			}
			declared[o.key] = true
		}
	}
	for key := range allow {
		if !declared[key] {
			problems = append(problems, key+" (allowlisted, but not declared)")
		}
	}
	sort.Strings(problems)
	return problems, len(options)
}

// loader type-checks the module's packages from source on demand; other
// imports go to the stdlib source importer.
type loader struct {
	fset   *token.FileSet
	std    types.Importer
	listed map[string]*listedPkg
	pkgs   map[string]*types.Package
	files  map[string][]*ast.File
	info   *types.Info
}

func (ld *loader) Import(path string) (*types.Package, error) {
	lp := ld.listed[path]
	if lp == nil {
		return ld.std.Import(path)
	}
	if p := ld.pkgs[path]; p != nil {
		return p, nil
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(lp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: ld}
	p, err := conf.Check(path, ld.fset, files, ld.info)
	if err != nil {
		return nil, err
	}
	ld.pkgs[path], ld.files[path] = p, files
	return p, nil
}

// dispatchIfaces returns the interfaces whose methods dynamic dispatch
// may call: every interface type the module writes, named or literal (as
// in x.(interface{ M() })), error, and stdDynamic.
func dispatchIfaces(ld *loader) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, want := range stdDynamic {
			if p.Path() == want.pkg {
				ifaces = append(ifaces, p.Scope().Lookup(want.name).Type().Underlying().(*types.Interface))
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range ld.pkgs {
		visit(p)
	}
	for _, tv := range ld.info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() && it.IsMethodSet() && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	return ifaces
}

// dispatchedMethods returns the methods of tn that an interface of
// ifaces names, for each one *tn implements. Generic types and
// interfaces have none.
func dispatchedMethods(tn *types.TypeName, ifaces []*types.Interface) []*types.Func {
	if n, ok := tn.Type().(*types.Named); tn.IsAlias() || !ok || n.TypeParams().Len() > 0 {
		return nil
	}
	if _, ok := tn.Type().Underlying().(*types.Interface); ok {
		return nil
	}
	ptr := types.NewPointer(tn.Type())
	var out []*types.Func
	for _, it := range ifaces {
		if !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
				out = append(out, obj.(*types.Func))
			}
		}
	}
	return out
}

// where is pos as file:line.
func (ld *loader) where(pos token.Pos) string {
	p := ld.fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// recvName is the receiver's type name without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprint(e)
		}
	}
}
