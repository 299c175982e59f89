// Package tpcc implements the TPC-C OLTP benchmark over the transactional
// key-value interface, following the paper's setup (§11): the five standard
// transactions, plus the two secondary-index tables the paper adds for
// looking up customers by last name and a customer's latest order.
//
// The scale is configurable; the paper runs 10 warehouses. Row counts per
// warehouse are scaled down from the TPC-C spec by the Scale* parameters so
// the benchmark loads quickly through Obladi's epoched write batches.
package tpcc

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"obladi/internal/kvtxn"
)

// Config scales the benchmark.
type Config struct {
	Warehouses       int
	DistrictsPerWH   int // spec: 10
	CustomersPerDist int // spec: 3000
	Items            int // spec: 100000
	InitialOrders    int // orders preloaded per district
	MaxOrderLines    int // spec: 5-15; scaled down for small ValueSize
	PaymentByNamePct int // spec: 60
	Seed             uint64
}

// Defaults returns a CI-scale configuration.
func Defaults() Config {
	return Config{
		Warehouses:       2,
		DistrictsPerWH:   2,
		CustomersPerDist: 10,
		Items:            50,
		InitialOrders:    3,
		MaxOrderLines:    4,
		PaymentByNamePct: 60,
		Seed:             1,
	}
}

// MinValueSize is the block size the workload's rows require.
const MinValueSize = 192

// Last-name syllables per the TPC-C spec.
var syllables = []string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}

// lastName derives a spec-style last name from a number.
func lastName(num int) string {
	return syllables[(num/100)%10] + syllables[(num/10)%10] + syllables[num%10]
}

// Key constructors.
func itemKey(i int) string           { return fmt.Sprintf("i:%d", i) }
func warehouseKey(w int) string      { return fmt.Sprintf("w:%d", w) }
func districtKey(w, d int) string    { return fmt.Sprintf("d:%d:%d", w, d) }
func customerKey(w, d, c int) string { return fmt.Sprintf("c:%d:%d:%d", w, d, c) }
func custNameKey(w, d int, last string) string {
	return fmt.Sprintf("cidx:%d:%d:%s", w, d, last)
}
func orderKey(w, d, o int) string       { return fmt.Sprintf("o:%d:%d:%d", w, d, o) }
func latestOrderKey(w, d, c int) string { return fmt.Sprintf("oidx:%d:%d:%d", w, d, c) }
func newOrderKey(w, d, o int) string    { return fmt.Sprintf("no:%d:%d:%d", w, d, o) }
func noQueueKey(w, d int) string        { return fmt.Sprintf("noq:%d:%d", w, d) }
func orderLineKey(w, d, o, n int) string {
	return fmt.Sprintf("ol:%d:%d:%d:%d", w, d, o, n)
}
func stockKey(w, i int) string { return fmt.Sprintf("s:%d:%d", w, i) }
func historyKey(w, d, c, n int) string {
	return fmt.Sprintf("h:%d:%d:%d:%d", w, d, c, n)
}

// Row field layouts (tuples):
//   warehouse: name, taxBp, ytdCents
//   district:  taxBp, ytdCents, nextOID
//   customer:  first, last, balanceCents, ytdPaymentCents, paymentCnt, deliveryCnt
//   cidx:      comma-joined customer ids
//   order:     cid, olCnt, carrier (0 = undelivered)
//   oidx:      latest oid
//   new-order queue: firstUndelivered, nextToCreate (== district nextOID mirror)
//   order line: itemID, qty, amountCents
//   stock:     qty, ytd, orderCnt
//   item:      name, priceCents

// Load populates the database. It runs many small transactions so it works
// within Obladi's per-epoch write-batch capacity; the caller must run the
// proxy in auto mode or pump it concurrently.
func Load(db kvtxn.DB, cfg Config) error {
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xabcdef))
	put := newBatchPutter(db, 16)
	for i := 0; i < cfg.Items; i++ {
		price := int64(100 + rng.IntN(9900))
		if err := put.add(itemKey(i), kvtxn.Tuple{fmt.Sprintf("item-%d", i), kvtxn.Itoa(price)}); err != nil {
			return err
		}
	}
	for w := 0; w < cfg.Warehouses; w++ {
		wt := kvtxn.Tuple{fmt.Sprintf("wh-%d", w), kvtxn.Itoa(int64(rng.IntN(2000))), "0"}
		if err := put.add(warehouseKey(w), wt); err != nil {
			return err
		}
		for i := 0; i < cfg.Items; i++ {
			st := kvtxn.Tuple{kvtxn.Itoa(int64(10 + rng.IntN(90))), "0", "0"}
			if err := put.add(stockKey(w, i), st); err != nil {
				return err
			}
		}
		for d := 0; d < cfg.DistrictsPerWH; d++ {
			names := make(map[string][]string)
			for c := 0; c < cfg.CustomersPerDist; c++ {
				last := lastName(c % 30) // collisions by design: index lists
				ct := kvtxn.Tuple{fmt.Sprintf("first-%d", c), last, "0", "0", "0", "0"}
				if err := put.add(customerKey(w, d, c), ct); err != nil {
					return err
				}
				names[last] = append(names[last], kvtxn.Itoa(int64(c)))
			}
			for last, ids := range names {
				if err := put.add(custNameKey(w, d, last), kvtxn.Tuple{strings.Join(ids, ",")}); err != nil {
					return err
				}
			}
			nextOID := cfg.InitialOrders
			dt := kvtxn.Tuple{kvtxn.Itoa(int64(rng.IntN(2000))), "0", kvtxn.Itoa(int64(nextOID))}
			if err := put.add(districtKey(w, d), dt); err != nil {
				return err
			}
			if err := put.add(noQueueKey(w, d), kvtxn.Tuple{"0", kvtxn.Itoa(int64(nextOID))}); err != nil {
				return err
			}
			for o := 0; o < cfg.InitialOrders; o++ {
				cid := o % cfg.CustomersPerDist
				olCnt := 1 + rng.IntN(cfg.MaxOrderLines)
				ot := kvtxn.Tuple{kvtxn.Itoa(int64(cid)), kvtxn.Itoa(int64(olCnt)), "0"}
				if err := put.add(orderKey(w, d, o), ot); err != nil {
					return err
				}
				if err := put.add(newOrderKey(w, d, o), kvtxn.Tuple{"1"}); err != nil {
					return err
				}
				if err := put.add(latestOrderKey(w, d, cid), kvtxn.Tuple{kvtxn.Itoa(int64(o))}); err != nil {
					return err
				}
				for n := 0; n < olCnt; n++ {
					item := rng.IntN(cfg.Items)
					olt := kvtxn.Tuple{kvtxn.Itoa(int64(item)), kvtxn.Itoa(int64(1 + rng.IntN(10))), kvtxn.Itoa(int64(rng.IntN(5000)))}
					if err := put.add(orderLineKey(w, d, o, n), olt); err != nil {
						return err
					}
				}
			}
		}
	}
	return put.flush()
}

// batchPutter groups loader writes into transactions of bounded size.
type batchPutter struct {
	db      kvtxn.DB
	perTxn  int
	pending []struct {
		key string
		val []byte
	}
}

func newBatchPutter(db kvtxn.DB, perTxn int) *batchPutter {
	return &batchPutter{db: db, perTxn: perTxn}
}

func (b *batchPutter) add(key string, t kvtxn.Tuple) error {
	b.pending = append(b.pending, struct {
		key string
		val []byte
	}{key, t.Encode()})
	if len(b.pending) >= b.perTxn {
		return b.flush()
	}
	return nil
}

func (b *batchPutter) flush() error {
	if len(b.pending) == 0 {
		return nil
	}
	batch := b.pending
	b.pending = nil
	return kvtxn.RunWithRetries(b.db, 50, func(tx kvtxn.Txn) error {
		for _, p := range batch {
			if err := tx.Write(p.key, p.val); err != nil {
				return err
			}
		}
		return nil
	})
}

// Client generates and executes TPC-C transactions.
type Client struct {
	cfg Config
	rng *rand.Rand
	db  kvtxn.DB
}

// NewClient creates a client with its own RNG stream.
func NewClient(db kvtxn.DB, cfg Config, seed uint64) *Client {
	return &Client{cfg: cfg, rng: rand.New(rand.NewPCG(seed, seed^0x5bd1e995)), db: db}
}

// TxnNames lists the five TPC-C transaction types.
func TxnNames() []string {
	return []string{"new-order", "payment", "order-status", "delivery", "stock-level"}
}

// Next runs one transaction from the standard mix (45/43/4/4/4) and reports
// its name. An ErrAborted outcome counts as an abort, not a failure.
func (c *Client) Next() (string, error) {
	p := c.rng.IntN(100)
	switch {
	case p < 45:
		return "new-order", c.NewOrder()
	case p < 88:
		return "payment", c.Payment()
	case p < 92:
		return "order-status", c.OrderStatus()
	case p < 96:
		return "delivery", c.Delivery()
	default:
		return "stock-level", c.StockLevel()
	}
}

func (c *Client) wh() int   { return c.rng.IntN(c.cfg.Warehouses) }
func (c *Client) dist() int { return c.rng.IntN(c.cfg.DistrictsPerWH) }
func (c *Client) cust() int { return c.rng.IntN(c.cfg.CustomersPerDist) }

// readTuple reads and decodes a row inside tx.
func readTuple(tx kvtxn.Txn, key string) (kvtxn.Tuple, error) {
	v, found, err := tx.Read(key)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("tpcc: missing row %q", key)
	}
	return kvtxn.DecodeTuple(v)
}

// NewOrder implements the new-order transaction.
func (c *Client) NewOrder() error {
	w, d := c.wh(), c.dist()
	cid := c.cust()
	nLines := 1 + c.rng.IntN(c.cfg.MaxOrderLines)
	items := make([]int, 0, nLines)
	seen := make(map[int]bool)
	for len(items) < nLines {
		it := c.rng.IntN(c.cfg.Items)
		if !seen[it] {
			seen[it] = true
			items = append(items, it)
		}
	}
	sort.Ints(items)
	qty := make([]int, nLines)
	for i := range qty {
		qty[i] = 1 + c.rng.IntN(10)
	}
	tx := c.db.Begin()
	defer tx.Abort()
	// Warehouse, district, customer, and all item/stock rows are
	// independent: fetch them in one batch.
	keys := []string{warehouseKey(w), districtKey(w, d), customerKey(w, d, cid), noQueueKey(w, d)}
	for _, it := range items {
		keys = append(keys, itemKey(it), stockKey(w, it))
	}
	res, err := tx.ReadMany(keys)
	if err != nil {
		return err
	}
	rows := make(map[string]kvtxn.Tuple, len(res))
	for _, r := range res {
		if !r.Found {
			return fmt.Errorf("tpcc: missing row %q", r.Key)
		}
		t, err := kvtxn.DecodeTuple(r.Value)
		if err != nil {
			return err
		}
		rows[r.Key] = t
	}
	district := rows[districtKey(w, d)]
	oid := int(district.MustInt(2))
	district.SetInt(2, int64(oid+1))
	if err := tx.Write(districtKey(w, d), district.Encode()); err != nil {
		return err
	}
	noq := rows[noQueueKey(w, d)]
	noq.SetInt(1, int64(oid+1))
	if err := tx.Write(noQueueKey(w, d), noq.Encode()); err != nil {
		return err
	}
	total := int64(0)
	for i, it := range items {
		item := rows[itemKey(it)]
		stock := rows[stockKey(w, it)]
		price := item.MustInt(1)
		q := stock.MustInt(0)
		if q >= int64(qty[i])+10 {
			stock.SetInt(0, q-int64(qty[i]))
		} else {
			stock.SetInt(0, q-int64(qty[i])+91)
		}
		stock.SetInt(1, stock.MustInt(1)+int64(qty[i]))
		stock.SetInt(2, stock.MustInt(2)+1)
		if err := tx.Write(stockKey(w, it), stock.Encode()); err != nil {
			return err
		}
		amount := price * int64(qty[i])
		total += amount
		ol := kvtxn.Tuple{kvtxn.Itoa(int64(it)), kvtxn.Itoa(int64(qty[i])), kvtxn.Itoa(amount)}
		if err := tx.Write(orderLineKey(w, d, oid, i), ol.Encode()); err != nil {
			return err
		}
	}
	order := kvtxn.Tuple{kvtxn.Itoa(int64(cid)), kvtxn.Itoa(int64(len(items))), "0"}
	if err := tx.Write(orderKey(w, d, oid), order.Encode()); err != nil {
		return err
	}
	if err := tx.Write(newOrderKey(w, d, oid), kvtxn.Tuple{"1"}.Encode()); err != nil {
		return err
	}
	if err := tx.Write(latestOrderKey(w, d, cid), kvtxn.Tuple{kvtxn.Itoa(int64(oid))}.Encode()); err != nil {
		return err
	}
	_ = total
	return tx.Commit()
}

// lookupCustomer resolves a customer id, 60% of the time via the last-name
// index (taking the spec's "middle" customer).
func (c *Client) lookupCustomer(tx kvtxn.Txn, w, d int) (int, error) {
	if c.rng.IntN(100) < c.cfg.PaymentByNamePct {
		last := lastName(c.rng.IntN(30))
		v, found, err := tx.Read(custNameKey(w, d, last))
		if err != nil {
			return 0, err
		}
		if found {
			t, err := kvtxn.DecodeTuple(v)
			if err != nil {
				return 0, err
			}
			ids := strings.Split(t[0], ",")
			mid := ids[len(ids)/2]
			var cid int
			if _, err := fmt.Sscanf(mid, "%d", &cid); err != nil {
				return 0, err
			}
			return cid, nil
		}
		// Name not present at this scale: fall back to direct id.
	}
	return c.cust(), nil
}

// Payment implements the payment transaction.
func (c *Client) Payment() error {
	w, d := c.wh(), c.dist()
	amount := int64(100 + c.rng.IntN(500000))
	tx := c.db.Begin()
	defer tx.Abort()
	cid, err := c.lookupCustomer(tx, w, d)
	if err != nil {
		return err
	}
	res, err := tx.ReadMany([]string{warehouseKey(w), districtKey(w, d), customerKey(w, d, cid)})
	if err != nil {
		return err
	}
	for _, r := range res {
		if !r.Found {
			return fmt.Errorf("tpcc: missing row %q", r.Key)
		}
	}
	wt, err := kvtxn.DecodeTuple(res[0].Value)
	if err != nil {
		return err
	}
	dt, err := kvtxn.DecodeTuple(res[1].Value)
	if err != nil {
		return err
	}
	ct, err := kvtxn.DecodeTuple(res[2].Value)
	if err != nil {
		return err
	}
	wt.SetInt(2, wt.MustInt(2)+amount)
	dt.SetInt(1, dt.MustInt(1)+amount)
	ct.SetInt(2, ct.MustInt(2)-amount)
	ct.SetInt(3, ct.MustInt(3)+amount)
	payCnt := ct.MustInt(4) + 1
	ct.SetInt(4, payCnt)
	if err := tx.Write(warehouseKey(w), wt.Encode()); err != nil {
		return err
	}
	if err := tx.Write(districtKey(w, d), dt.Encode()); err != nil {
		return err
	}
	if err := tx.Write(customerKey(w, d, cid), ct.Encode()); err != nil {
		return err
	}
	hist := kvtxn.Tuple{kvtxn.Itoa(amount)}
	if err := tx.Write(historyKey(w, d, cid, int(payCnt)), hist.Encode()); err != nil {
		return err
	}
	return tx.Commit()
}

// OrderStatus implements the order-status transaction (read only).
func (c *Client) OrderStatus() error {
	w, d := c.wh(), c.dist()
	tx := c.db.Begin()
	defer tx.Abort()
	cid, err := c.lookupCustomer(tx, w, d)
	if err != nil {
		return err
	}
	if _, err := readTuple(tx, customerKey(w, d, cid)); err != nil {
		return err
	}
	v, found, err := tx.Read(latestOrderKey(w, d, cid))
	if err != nil {
		return err
	}
	if found {
		t, err := kvtxn.DecodeTuple(v)
		if err != nil {
			return err
		}
		oid := int(t.MustInt(0))
		order, err := readTuple(tx, orderKey(w, d, oid))
		if err != nil {
			return err
		}
		olCnt := int(order.MustInt(1))
		keys := make([]string, olCnt)
		for i := range keys {
			keys[i] = orderLineKey(w, d, oid, i)
		}
		if _, err := tx.ReadMany(keys); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// Delivery implements the delivery transaction for one district.
func (c *Client) Delivery() error {
	w, d := c.wh(), c.dist()
	carrier := 1 + c.rng.IntN(10)
	tx := c.db.Begin()
	defer tx.Abort()
	noq, err := readTuple(tx, noQueueKey(w, d))
	if err != nil {
		return err
	}
	first, next := int(noq.MustInt(0)), int(noq.MustInt(1))
	if first >= next {
		// Queue empty; commit the no-op (spec allows skipped deliveries).
		return tx.Commit()
	}
	oid := first
	noq.SetInt(0, int64(first+1))
	if err := tx.Write(noQueueKey(w, d), noq.Encode()); err != nil {
		return err
	}
	if err := tx.Delete(newOrderKey(w, d, oid)); err != nil {
		return err
	}
	order, err := readTuple(tx, orderKey(w, d, oid))
	if err != nil {
		return err
	}
	order.SetInt(2, int64(carrier))
	if err := tx.Write(orderKey(w, d, oid), order.Encode()); err != nil {
		return err
	}
	cid := int(order.MustInt(0))
	olCnt := int(order.MustInt(1))
	keys := make([]string, olCnt)
	for i := range keys {
		keys[i] = orderLineKey(w, d, oid, i)
	}
	res, err := tx.ReadMany(keys)
	if err != nil {
		return err
	}
	total := int64(0)
	for _, r := range res {
		if !r.Found {
			continue
		}
		t, err := kvtxn.DecodeTuple(r.Value)
		if err != nil {
			return err
		}
		total += t.MustInt(2)
	}
	cust, err := readTuple(tx, customerKey(w, d, cid))
	if err != nil {
		return err
	}
	cust.SetInt(2, cust.MustInt(2)+total)
	cust.SetInt(5, cust.MustInt(5)+1)
	if err := tx.Write(customerKey(w, d, cid), cust.Encode()); err != nil {
		return err
	}
	return tx.Commit()
}

// StockLevel implements the stock-level transaction (read only).
func (c *Client) StockLevel() error {
	w, d := c.wh(), c.dist()
	threshold := int64(10 + c.rng.IntN(10))
	tx := c.db.Begin()
	defer tx.Abort()
	district, err := readTuple(tx, districtKey(w, d))
	if err != nil {
		return err
	}
	nextOID := int(district.MustInt(2))
	lookback := 5
	items := make(map[int]bool)
	var olKeys []string
	type olRef struct{ o, n int }
	var refs []olRef
	for o := nextOID - lookback; o < nextOID; o++ {
		if o < 0 {
			continue
		}
		for n := 0; n < c.cfg.MaxOrderLines; n++ {
			olKeys = append(olKeys, orderLineKey(w, d, o, n))
			refs = append(refs, olRef{o, n})
		}
	}
	res, err := tx.ReadMany(olKeys)
	if err != nil {
		return err
	}
	for _, r := range res {
		if !r.Found {
			continue
		}
		t, err := kvtxn.DecodeTuple(r.Value)
		if err != nil {
			return err
		}
		items[int(t.MustInt(0))] = true
	}
	var stockKeys []string
	var ids []int
	for it := range items {
		ids = append(ids, it)
	}
	sort.Ints(ids)
	for _, it := range ids {
		stockKeys = append(stockKeys, stockKey(w, it))
	}
	sres, err := tx.ReadMany(stockKeys)
	if err != nil {
		return err
	}
	low := 0
	for _, r := range sres {
		if !r.Found {
			continue
		}
		t, err := kvtxn.DecodeTuple(r.Value)
		if err != nil {
			return err
		}
		if t.MustInt(0) < threshold {
			low++
		}
	}
	_ = low
	return tx.Commit()
}

// Verify checks cross-table invariants: district nextOID matches the
// new-order queue mirror, and every undelivered order id in
// [first, next) has a new-order marker. Used by tests. Reads are batched so
// the whole check fits in two read-batch rounds under Obladi.
func Verify(db kvtxn.DB, cfg Config) error {
	return kvtxn.RunWithRetries(db, 20, func(tx kvtxn.Txn) error {
		var keys []string
		for w := 0; w < cfg.Warehouses; w++ {
			for d := 0; d < cfg.DistrictsPerWH; d++ {
				keys = append(keys, districtKey(w, d), noQueueKey(w, d))
			}
		}
		res, err := tx.ReadMany(keys)
		if err != nil {
			return err
		}
		var markerKeys []string
		for i := 0; i < len(res); i += 2 {
			if !res[i].Found || !res[i+1].Found {
				return fmt.Errorf("tpcc: missing district rows %q/%q", res[i].Key, res[i+1].Key)
			}
			dt, err := kvtxn.DecodeTuple(res[i].Value)
			if err != nil {
				return err
			}
			noq, err := kvtxn.DecodeTuple(res[i+1].Value)
			if err != nil {
				return err
			}
			if dt.MustInt(2) != noq.MustInt(1) {
				return fmt.Errorf("tpcc: %s: district nextOID %d != queue mirror %d", res[i].Key, dt.MustInt(2), noq.MustInt(1))
			}
			w, d := 0, 0
			if _, err := fmt.Sscanf(res[i].Key, "d:%d:%d", &w, &d); err != nil {
				return err
			}
			for o := int(noq.MustInt(0)); o < int(noq.MustInt(1)); o++ {
				markerKeys = append(markerKeys, newOrderKey(w, d, o))
			}
		}
		if len(markerKeys) == 0 {
			return nil
		}
		markers, err := tx.ReadMany(markerKeys)
		if err != nil {
			return err
		}
		for _, m := range markers {
			if !m.Found {
				return fmt.Errorf("tpcc: order %q in queue window without marker", m.Key)
			}
		}
		return nil
	})
}
