//go:build !race

// The function rule of DESIGN §3a *Packages and functions*: a function
// or method declared under internal/ exists only if a program under
// cmd/, bench/ or examples/ reaches it, or reachAllow names it with a
// reason. The check type-checks the module with go/types (stdlib from
// source) and walks every function body from the programs' roots. It is
// built out under the race detector, which only slows the type-check.
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
	"sim.Kernel.Pending":               "(a) netsim's and slo's tests check no timer outlives a released reservation or stopped tracker",
	"sim.Kernel.RunFor":                "(a) advances the kernel in netsim, rtcorba, pubsub, monitor, slo and ft tests",
	"transport.StreamConn.DSCP":        "(a) orb's TestDSCPFollowsNetworkMapping reads the codepoint the ORB set on its connection",
	"transport.StreamConn.RecvTimeout": "(a) the sim-ORB side of wire's interop tests reads replies with it",
}

// maxReachAllow caps reachAllow (ROADMAP item 13).
const maxReachAllow = 20

func TestEveryFunctionReachable(t *testing.T) {
	if len(reachAllow) > maxReachAllow {
		t.Errorf("reachAllow has %d entries, the cap is %d", len(reachAllow), maxReachAllow)
	}
	problems, err := unreachedFuncs(".", reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Errorf("%d function(s) under internal/ that no program under cmd/, bench/ or examples/ reaches "+
			"(delete them, or allowlist a test seam or paper API in reachAllow):\n\t%s",
			len(problems), strings.Join(problems, "\n\t"))
	}
}

// TestReachabilityFixture runs the checker on testdata/reach, a module
// with one program, one reached function, one interface-dispatched
// method, one allowlisted seam and one exported function that only its
// own test calls. Only the last may be reported.
func TestReachabilityFixture(t *testing.T) {
	problems, err := unreachedFuncs(filepath.Join("testdata", "reach"),
		map[string]string{"lib.Seam": "(a) the fixture's seam"})
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.HasPrefix(problems[0], "lib.TestOnly ") {
		t.Fatalf("checker reported %q, want exactly lib.TestOnly", problems)
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

// unreachedFuncs type-checks the module rooted at dir and returns, sorted,
// every function or method declared in a non-test file under its
// internal/ that no program reaches and allow does not name, as
// "pkg.Recv.Name (file:line)". A stale allowlist entry (a program
// reaches it, or it is not declared) is reported too.
func unreachedFuncs(dir string, allow map[string]string) ([]string, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	listed := map[string]*listedPkg{}
	var paths []string
	mod := ""
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		listed[p.ImportPath] = p
		paths = append(paths, p.ImportPath)
		if p.Module != nil {
			mod = p.Module.Path
		}
	}

	// The source importer reads build.Default: without cgo it needs no C
	// compiler and takes the pure-Go files of net and os/user.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	ld := &loader{
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
	for _, path := range paths {
		if _, err := ld.Import(path); err != nil {
			return nil, err
		}
	}

	// Index every declared function, and queue the roots: main and init
	// of each program, every init, every package-level initialiser.
	decls := map[*types.Func]*ast.FuncDecl{}
	var work []ast.Node
	for _, path := range paths {
		prog := listed[path].Name == "main" && (strings.HasPrefix(path, mod+"/cmd/") ||
			strings.HasPrefix(path, mod+"/bench/") || strings.HasPrefix(path, mod+"/examples/"))
		for _, f := range ld.files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if fn, ok := ld.info.Defs[d.Name].(*types.Func); ok {
						decls[fn] = d
					}
					if d.Recv == nil && (d.Name.Name == "init" || prog && d.Name.Name == "main") {
						work = append(work, d)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						work = append(work, d)
					}
				}
			}
		}
	}

	reached := map[*types.Func]bool{}
	mark := func(fn *types.Func) {
		fn = fn.Origin()
		if !reached[fn] {
			reached[fn] = true
			if d := decls[fn]; d != nil {
				work = append(work, d)
			}
		}
	}
	walk := func() {
		for len(work) > 0 {
			n := work[len(work)-1]
			work = work[:len(work)-1]
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := ld.info.Uses[id].(*types.Func); ok {
						mark(fn)
					}
				}
				return true
			})
		}
	}
	for _, m := range ifaceMethods(ld) {
		mark(m)
	}
	walk()

	// Name what is declared under internal/; what a program reaches is
	// settled, so the allowlist can now root what its entries call.
	keys := map[*types.Func]string{}
	byKey := map[string]*types.Func{}
	for fn, d := range decls {
		path := fn.Pkg().Path()
		if !strings.HasPrefix(path, mod+"/internal/") || d.Name.Name == "init" || d.Name.Name == "_" {
			continue
		}
		key := strings.TrimPrefix(path, mod+"/internal/") + "."
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
			pos := fset.Position(decls[fn].Pos())
			problems = append(problems, fmt.Sprintf("%s (%s:%d)", key, filepath.Base(pos.Filename), pos.Line))
		}
	}
	sort.Strings(problems)
	return problems, nil
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

// ifaceMethods returns the methods dynamic dispatch may call: for every
// named type of the module that implements an interface the module
// writes, error, or one of stdDynamic, the methods that interface names.
func ifaceMethods(ld *loader) []*types.Func {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	var named []*types.TypeName
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
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if _, ok := tn.Type().Underlying().(*types.Interface); !ok {
				named = append(named, tn)
			}
		}
	}
	// Every interface type the module writes, named or literal (as in
	// x.(interface{ M() })).
	for _, tv := range ld.info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() && it.IsMethodSet() {
			ifaces = append(ifaces, it)
		}
	}
	var out []*types.Func
	for _, tn := range named {
		ptr := types.NewPointer(tn.Type())
		for _, it := range ifaces {
			if it.NumMethods() == 0 || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					out = append(out, obj.(*types.Func))
				}
			}
		}
	}
	return out
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
