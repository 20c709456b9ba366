package stack

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/pool"
	"repro/internal/sqldb"
)

func apps(t *testing.T) []*App {
	t.Helper()
	var out []*App
	for _, name := range []string{"bookstore", "auction"} {
		a, err := AppByName(name, "tiny")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

// TestDescriptorsComplete holds both applications to the whole descriptor:
// a field added to App later cannot be left unset for one of them.
func TestDescriptorsComplete(t *testing.T) {
	for _, a := range apps(t) {
		v := reflect.ValueOf(*a)
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Errorf("%s: App.%s is unset", a.Name, v.Type().Field(i).Name)
			}
		}
		if a.Profile.Name != a.Name {
			t.Errorf("%s: Profile.Name = %q", a.Name, a.Profile.Name)
		}
		g := datagen.New(1)
		for _, in := range a.Profile.Interactions {
			if p := in.Build(g).Path; !strings.HasPrefix(p, a.BasePath) {
				t.Errorf("%s: interaction %s requests %q, outside %q", a.Name, in.Name, p, a.BasePath)
			}
		}
		db, _, err := OpenDB(sqldb.WALOptions{}, a.CreateSchema)
		if err != nil {
			t.Fatal(err)
		}
		tables := strings.Join(db.TableNames(), " ")
		for table := range a.ShardBy {
			if !strings.Contains(" "+tables+" ", " "+table+" ") {
				t.Errorf("%s: ShardBy names table %q; CreateSchema creates %s", a.Name, table, tables)
			}
		}
	}
}

// TestAppByNameRejectsUnknown pins the typo behaviour the daemons rely on:
// an unknown scale or benchmark is an error naming the accepted values,
// never a silent default (dbserver -scale tinny used to populate the
// default scale).
func TestAppByNameRejectsUnknown(t *testing.T) {
	for _, tc := range []struct{ benchmark, scale, want string }{
		{"auction", "tinny", "tiny, default or paper"},
		{"rubis", "default", "bookstore or auction"},
	} {
		a, err := AppByName(tc.benchmark, tc.scale)
		if err == nil || a != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("AppByName(%q, %q) = %v, %v; want an error naming %q", tc.benchmark, tc.scale, a, err, tc.want)
		}
	}
}

// TestOpenDBRecoversInsteadOfFilling: over a data directory that holds
// state the disk wins and fill does not run; a fresh one fills first and
// checkpoints the result.
func TestOpenDBRecoversInsteadOfFilling(t *testing.T) {
	a := apps(t)[1]
	wal := sqldb.WALOptions{Dir: t.TempDir()}
	fills := 0
	fill := func(db sqldb.Execer) error { fills++; return a.Seed(db, 1) }
	db, info, err := OpenDB(wal, fill)
	if err != nil || info.Recovered || fills != 1 {
		t.Fatalf("fresh boot: info %+v, %d fills, err %v", info, fills, err)
	}
	want := len(db.TableNames())
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db, info, err = OpenDB(wal, fill)
	if err != nil || !info.Recovered || fills != 1 {
		t.Fatalf("restart: info %+v, %d fills, err %v", info, fills, err)
	}
	defer db.CloseWAL()
	if info.ReplayedStmts != 0 {
		t.Errorf("seed was logged statement by statement: %d replayed", info.ReplayedStmts)
	}
	if got := len(db.TableNames()); got != want || want == 0 {
		t.Errorf("recovered %d tables, want %d", got, want)
	}
}

// TestConnectRoutes pins the -ajp list grammar the webserver documents.
func TestConnectRoutes(t *testing.T) {
	backends, err := Connect("127.0.0.1:1, ,tc2=127.0.0.1:2,127.0.0.1:3", 1, pool.Timeouts{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, be := range backends {
		ids = append(ids, be.ID)
	}
	// A stray comma does not shift positions: the third accepted backend
	// is a2.
	if got := strings.Join(ids, ","); got != "a0,tc2,a2" {
		t.Errorf("routes %s, want a0,tc2,a2", got)
	}
	for _, bad := range []string{"", " , ", "x=127.0.0.1:1,x=127.0.0.1:2", "127.0.0.1:1,a0=127.0.0.1:2"} {
		if _, err := Connect(bad, 1, pool.Timeouts{}); err == nil {
			t.Errorf("Connect(%q) accepted", bad)
		}
	}
}
