package experiments

import (
	"net/http/httptest"
	"reflect"
	"testing"

	"locat/internal/loadgen"
)

// The loadgen census is a property of the service, not of the transport:
// the same workload played in process and over HTTP against identically
// configured services, one worker each with the pool held until every op
// is submitted, counts every group the same.
func TestLoadtestCensusSameOverHTTP(t *testing.T) {
	s := quickSession()
	entries, err := loadtestHistory(s)
	if err != nil {
		t.Fatal(err)
	}
	ops := loadtestOps(1)
	inProcess, err := runLoadtest(s, entries, ops, 1)
	if err != nil {
		t.Fatal(err)
	}

	svc, err := loadtestService(s, entries, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	overHTTP, err := loadgen.Run(&loadgen.HTTPTarget{Base: srv.URL, Client: srv.Client()}, ops, loadgen.Config{
		Clients:          4,
		SequentialSubmit: true,
		AfterSubmit:      svc.Release,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inProcess.Groups, overHTTP.Groups) {
		t.Fatalf("census differs:\nin process\n%v\nover HTTP\n%v", censusString(inProcess), censusString(overHTTP))
	}
	if err := checkCensus(overHTTP); err != nil {
		t.Fatal(err)
	}
}
