package obs

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExportAllow names the exported declarations TestVetDeadExports accepts
// without a non-test referrer, each with the reason it stays. An entry is a
// package directory ("internal/faults"), a file ("internal/forecast/gbdt.go")
// or "dir.Name" / "dir.Type.Method". Every entry must still cover at least
// one dead declaration: when its code gains a referrer or goes, the entry has
// to go too, so the list only shrinks.
var deadExportAllow = map[string]string{
	"internal/faults":                            "test support: the chaos, crash and SLO suites of other packages import it",
	"cmd/internal/cli/clitest":                   "test support: every cmd/ main_test.go parses the README's commands for its binary through it",
	"internal/obs.ParseText":                     "test support: other packages' tests scrape /metrics through it",
	"internal/obs.ParseTextWithExemplars":        "test support: other packages' tests scrape /metrics exemplars through it",
	"internal/topology.Topology.SetLinkFailProb": "test support: risk and granting tests mutate a served topology through it to pin the epoch-validity rule (DESIGN §10)",
	"internal/topology.Topology.SetLinkDisabled": "test support: risk and granting tests mutate a served topology through it to pin the epoch-validity rule (DESIGN §10)",
	"internal/wire.Client.NegotiatedCodec":       "test support: granting's codec round trip asserts which envelope a connection negotiated",
	"internal/contract.Accountability":           "the §3.2 demarcation: the integration tests assert it on granted and drilled outcomes, and examples/misbehaving prints it",
	"internal/forecast/gbdt.go":                  "the §4.1 inorganic model; ROADMAP item 10 F1 decides whether core uses it or it goes",
	"internal/forecast.Result.AdjustInorganic":   "the §4.1 inorganic model; ROADMAP item 10 F1 decides whether core uses it or it goes",
}

// ifaceMethods are method names that satisfy a standard-library interface
// implicitly, so a call site never names them.
var ifaceMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"String": true, "GoString": true, "Format": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true, "Set": true,
}

// TestVetDeadExports is the `make vet-dead` lint. An exported package-level
// func, type, var, non-iota const or method of this module is live only if
// its name appears as an identifier in some non-test .go file (nested
// modules such as bench/ included, examples/ not: a demo is no more a user
// than a test is) other than at its own declaration; a
// method's receiver type is part of that declaration. The match is by name,
// so a collision can keep dead code alive but never flags live code. It also
// fails on a package-level metric (a var assigned from obs.Register*) that no
// non-test file of its own package names again: a signal nothing moves.
func TestVetDeadExports(t *testing.T) {
	findings, err := vetDeadExports(moduleRoot(t), deadExportAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestVetDeadExportsFixture plants a dead export, an export only an example
// names, a dead metric and a stale allow-list entry in a throwaway module and
// checks that the lint reports exactly those, while the live, allow-listed
// and exempt declarations pass.
func TestVetDeadExportsFixture(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture\n",
		"a/a.go": `package a

import "fixture/obs"

var mLive = obs.RegisterCounter("entitlement_live_total", "")
var mDead = obs.RegisterCounter("entitlement_dead_total", "")

type Used struct{}

func (u *Used) Planted() {}
func (u *Used) Run()     { mLive.Inc() }
func (u Used) String() string { return "" }

func Dead() int { return 1 }
func Allowed() {}

const (
	KindA = iota
	KindB
)

func OnlyExample() {}
`,
		"a/a_test.go": "package a\n\nfunc use() { Dead(); new(Used).Planted() }\n",
		"obs/obs.go": `package obs

type Counter struct{}

func (c *Counter) Inc() {}
func RegisterCounter(name, help string) *Counter { return nil }
`,
		"main.go":               "package main\n\nimport \"fixture/a\"\n\nfunc main() { var u a.Used; u.Run() }\n",
		"examples/demo/main.go": "package main\n\nimport \"fixture/a\"\n\nfunc main() { a.OnlyExample() }\n",
	}
	for name, body := range files {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	allow := map[string]string{
		"a.Allowed": "fixture",
		"a.Used":    "stale: Used has a referrer",
	}
	got, err := vetDeadExports(root, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"a/a.go:10: exported Used.Planted has no non-test referrer",
		"a/a.go:14: exported Dead has no non-test referrer",
		"a/a.go:22: exported OnlyExample has no non-test referrer",
		"a/a.go:6: metric var mDead is never used by non-test code in package a",
		`allow-list entry "a.Used" (stale: Used has a referrer) covers no dead declaration`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// deadDecl is one exported declaration under test for a referrer.
type deadDecl struct {
	dir, file string // slash paths relative to the root
	line      int
	name      string // the identifier a referrer must name
	qual      string // Name or Type.Method, for messages and the allow-list
}

// vetDeadExports runs the lint over the module at root and returns its
// findings, sorted: dead exports, dead metric vars, stale allow entries.
func vetDeadExports(root string, allow map[string]string) ([]string, error) {
	fset := token.NewFileSet()
	refs := map[string]int{}               // identifier -> non-test occurrences
	pkgRefs := map[string]map[string]int{} // dir -> identifier -> occurrences
	var decls, metrics []deadDecl

	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || path == filepath.Join(root, "examples")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		dir := filepath.ToSlash(filepath.Dir(rel))
		// A declaring identifier is never a reference. A nested module's
		// references count; its declarations are its own module's business.
		declIdents := map[*ast.Ident]bool{}
		add := func(id *ast.Ident, qual string) {
			declIdents[id] = true
			if id.IsExported() {
				decls = append(decls, deadDecl{dir: dir, file: rel, line: fset.Position(id.Pos()).Line, name: id.Name, qual: qual})
			}
		}
		own := f.Decls
		if nestedModule(root, filepath.Dir(path)) {
			own = nil
		}
		for _, decl := range own {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(decl.Name, decl.Name.Name)
					continue
				}
				recv := receiverType(decl.Recv.List[0].Type)
				declIdents[recv] = true
				if !ifaceMethods[decl.Name.Name] {
					add(decl.Name, recv.Name+"."+decl.Name.Name)
				}
			case *ast.GenDecl:
				iota := decl.Tok == token.CONST && usesIota(decl)
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec.Name.Name)
					case *ast.ValueSpec:
						for i, id := range spec.Names {
							if !iota {
								add(id, id.Name)
							}
							if decl.Tok == token.VAR && i < len(spec.Values) && isRegisterCall(spec.Values[i]) {
								metrics = append(metrics, deadDecl{dir: dir, file: rel, line: fset.Position(id.Pos()).Line, name: id.Name})
							}
						}
					}
				}
			}
		}
		if pkgRefs[dir] == nil {
			pkgRefs[dir] = map[string]int{}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				refs[id.Name]++
				pkgRefs[dir][id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}

	var dead, deadMetrics, stale []string
	covered := map[string]bool{}
	for _, d := range decls {
		if refs[d.name] > 0 {
			continue
		}
		if key := allowedBy(allow, d); key != "" {
			covered[key] = true
			continue
		}
		dead = append(dead, fmt.Sprintf("%s:%d: exported %s has no non-test referrer", d.file, d.line, d.qual))
	}
	for _, m := range metrics {
		if pkgRefs[m.dir][m.name] == 0 {
			deadMetrics = append(deadMetrics, fmt.Sprintf("%s:%d: metric var %s is never used by non-test code in package %s", m.file, m.line, m.name, filepath.Base(m.dir)))
		}
	}
	for key, reason := range allow {
		if !covered[key] {
			stale = append(stale, fmt.Sprintf("allow-list entry %q (%s) covers no dead declaration", key, reason))
		}
	}
	sort.Strings(dead)
	sort.Strings(deadMetrics)
	sort.Strings(stale)
	return append(append(dead, deadMetrics...), stale...), nil
}

// allowedBy returns the allow-list key that covers d, or "".
func allowedBy(allow map[string]string, d deadDecl) string {
	for _, key := range []string{d.dir + "." + d.qual, d.file, d.dir} {
		if _, ok := allow[key]; ok {
			return key
		}
	}
	return ""
}

// nestedModule reports whether dir sits in a module of its own below root.
func nestedModule(root, dir string) bool {
	for ; dir != root && len(dir) > len(root); dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return true
		}
	}
	return false
}

// receiverType is the named type of a method receiver (T, *T, T[P]).
func receiverType(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			panic(fmt.Sprintf("unexpected receiver %T", e))
		}
	}
}

// usesIota reports whether a const block is an iota enumeration.
func usesIota(decl *ast.GenDecl) bool {
	found := false
	ast.Inspect(decl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// isRegisterCall matches obs.Register*(...) and, inside package obs,
// Register*(...).
func isRegisterCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		pkg, ok := fn.X.(*ast.Ident)
		return ok && pkg.Name == "obs" && strings.HasPrefix(fn.Sel.Name, "Register")
	case *ast.Ident:
		return strings.HasPrefix(fn.Name, "Register")
	}
	return false
}
