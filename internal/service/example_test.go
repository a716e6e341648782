package service_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"ejoin/internal/relational"
	"ejoin/internal/service"
)

// README.md's Go blocks are the bodies of these examples, so `go test`
// runs the documentation (TestReadmeGoBlocksAreExamples keeps the two in
// step).

func ExampleEngine_Query() {
	engine, err := service.NewEngine(service.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()
	for _, t := range []struct{ name, schema, csv string }{
		{"catalog", "sku:int,name:text", "sku,name\n1,barbecue\n2,database\n"},
		{"feed", "title:text", "title\nbarbecues\ndatabases\ngiraffe\n"},
	} {
		schema, err := relational.ParseSchema(t.schema)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := engine.RegisterCSV(t.name, schema, strings.NewReader(t.csv), false); err != nil {
			log.Fatal(err)
		}
	}

	req := service.QueryRequest{
		SQL:         "SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.6",
		Materialize: true,
	}
	for _, run := range []string{"cold", "warm"} {
		res, err := engine.Query(context.Background(), req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %s, %d matches, %d model calls\n", run, res.Strategy, len(res.Matches), res.Stats.ModelCalls)
		if run == "warm" {
			relational.WriteCSV(os.Stdout, res.Table)
		}
	}
	// Output:
	// cold: TensorJoin, 2 matches, 5 model calls
	// warm: TensorJoin, 2 matches, 0 model calls
	// l_sku,l_name,r_title,similarity
	// 1,barbecue,barbecues,0.7204177975654602
	// 2,database,databases,0.7475940585136414
}

func ExampleOpen() {
	dir, err := os.MkdirTemp("", "ejoin-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	schema, err := relational.ParseSchema("name:text")
	if err != nil {
		log.Fatal(err)
	}
	req := service.QueryRequest{SQL: "SELECT * FROM l JOIN r ON SIM(l.name, r.name) >= 0.6"}

	for _, boot := range []string{"first boot", "reboot"} {
		engine, err := service.Open(service.Config{DataDir: dir})
		if err != nil {
			log.Fatal(err)
		}
		if !engine.HasTable("l") { // the reboot recovers both tables
			for name, csv := range map[string]string{"l": "name\nbarbecue\ndatabase\n", "r": "name\nbarbecues\ngiraffe\n"} {
				if _, err := engine.RegisterCSV(name, schema, strings.NewReader(csv), false); err != nil {
					log.Fatal(err)
				}
			}
		}
		res, err := engine.Query(context.Background(), req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d tables, %d matches, %d model calls\n",
			boot, len(engine.Tables()), len(res.Matches), engine.Stats().Store.ModelCalls)
		if err := engine.Close(); err != nil {
			log.Fatal(err)
		}
	}
	// Output:
	// first boot: 2 tables, 1 matches, 4 model calls
	// reboot: 2 tables, 1 matches, 0 model calls
}
