(* The benchmark's inputs, every one a function of the seed. *)

open Mxra_relational
open Mxra_core
module W = Mxra_workload
module Printer = Mxra_xra.Printer

type size = {
  orders : int;
  customers : int;
  breweries : int;
  beers : int;
  check_orders : int;  (** reduced instance for the Eval oracle (olap) *)
  check_customers : int;
  check_breweries : int;
  check_beers : int;
  setups : int;  (** set-ups timed for the [setup_s] median *)
  durability_reps : int;  (** checkpoints and recoveries timed *)
  olap_passes_per_s : float;  (** passes per second of [--seconds] *)
  olap_par_passes_per_s : float;
  oltp_blocks_per_s : float;
}

let full =
  {
    orders = 20_000;
    customers = 2_000;
    breweries = 100;
    beers = 10_000;
    check_orders = 120;
    check_customers = 12;
    check_breweries = 10;
    check_beers = 200;
    setups = 3;
    durability_reps = 7;
    olap_passes_per_s = 0.5;
    olap_par_passes_per_s = 0.4;
    oltp_blocks_per_s = 1.0;
  }

let tiny =
  {
    orders = 300;
    customers = 30;
    breweries = 10;
    beers = 200;
    check_orders = 60;
    check_customers = 6;
    check_breweries = 5;
    check_beers = 50;
    setups = 2;
    durability_reps = 2;
    olap_passes_per_s = 4.0;
    olap_par_passes_per_s = 4.0;
    oltp_blocks_per_s = 4.0;
  }

let read label lang text = { Path.label; lang; text }

(* --- olap ----------------------------------------------------------------- *)

let unique_products =
  Expr.unique (Expr.project_attrs [ 2 ] (Expr.rel "lineitem"))

(* The analytic report: the three retail queries, duplicate elimination
   over the product bag, and the paper's examples over the beer data, as
   the XRA text a user would type. *)
let report =
  List.map
    (fun (label, e) -> read label Path.Xra ("?" ^ Printer.expr_to_string e))
    [
      ("revenue_per_country", W.Retail.revenue_per_country);
      ("order_sizes", W.Retail.order_sizes);
      ("repeat_products", W.Retail.repeat_products);
      ("unique_products", unique_products);
      ("example_3_1", W.Beer.example_3_1);
      ("example_3_2", W.Beer.example_3_2);
      ("example_3_2_reduced", W.Beer.example_3_2_reduced);
    ]

let report_log_schema =
  Schema.of_list
    [ ("pass", Domain.DInt); ("query", Domain.DStr); ("rows", Domain.DInt) ]

(* Each statement of the report is followed by saving its row count: one
   small transaction, so the analytic workload's store has a log whose
   length is fixed by the pass count. *)
let save_row ~pass ~query ~rows =
  Printf.sprintf
    "begin insert(report_log, rel[(pass:int, query:str, rows:int)]{(%d, \
     '%s', %d)}) end"
    pass query rows

let merge a b =
  List.fold_left
    (fun db name -> Database.create_with name (Database.find name b) db)
    a (Database.relation_names b)

(* Each generator draws from its own stream derived from the seed. *)
let olap_database ~seed ~orders ~customers ~breweries ~beers =
  let retail = W.Retail.generate ~rng:(W.Rng.make seed) ~customers ~orders () in
  let beer =
    W.Beer.generate ~rng:(W.Rng.make (seed + 1_000_003)) ~breweries ~beers ()
  in
  merge retail beer |> Database.create "report_log" report_log_schema

(* --- oltp ----------------------------------------------------------------- *)

let oltp_database ~seed ~orders ~customers =
  W.Retail.generate ~rng:(W.Rng.make seed) ~customers ~orders ()
  |> Database.create_index ~name:"orders_id" ~rel:"orders" ~cols:[ 1 ]
       ~kind:Database.Hash
  |> Database.create_index ~name:"orders_day" ~rel:"orders" ~cols:[ 3 ]
       ~kind:Database.Ordered

let products =
  [| "anvil"; "bolt"; "cog"; "dynamo"; "flange"; "gasket"; "lever"; "pulley";
     "rivet"; "spring"; "washer"; "widget" |]

(* One block's new operations: 11 Zipf-keyed point lookups and 5 short
   day ranges, in a seeded order, plus 2 order updates and 2 inserts of 2
   lineitems for the block's write round. *)
type block = {
  reads : Path.read list;
  round_at : int;  (** the write round runs after this many reads *)
  updates : string list;
  inserts : string list;
}

let points_per_block = 11
let ranges_per_block = 5
let writes_per_kind = 2

(* Every insert writes the same number of lineitems, so every round does
   the same work whatever the seed. *)
let items_per_insert = 2

let oltp_blocks ~rng ~orders =
  let zipf = W.Zipf.make ~n:orders ~s:1.0 in
  (* Scatter Zipf ranks over the id space (7919 is prime and coprime to
     every size used), so the hot keys are not simply the low ids. *)
  let key () = (W.Zipf.sample zipf rng - 1) * 7919 mod orders in
  let point () =
    read "point" Path.Sql
      (Printf.sprintf "SELECT * FROM orders WHERE id = %d" (key ()))
  in
  let range () =
    let lo = W.Rng.int rng 365 in
    read "range" Path.Sql
      (Printf.sprintf "SELECT * FROM orders WHERE day >= %d AND day <= %d" lo
         (lo + W.Rng.int rng 3))
  in
  let update () =
    Printf.sprintf
      "begin update(orders, select[%%1 = %d](orders), [%%1, %%2, (%%3 + 1) %% \
       365]) end"
      (key ())
  in
  let insert () =
    let item () =
      Printf.sprintf
        "insert(lineitem, rel[(order_id:int, product:str, qty:int, \
         price:float)]{(%d, '%s', %d, %d.%02d)})"
        (key ())
        products.(W.Rng.int rng (Array.length products))
        (1 + W.Rng.int rng 9)
        (1 + W.Rng.int rng 49)
        (W.Rng.int rng 100)
    in
    "begin "
    ^ String.concat "; " (List.init items_per_insert (fun _ -> item ()))
    ^ " end"
  in
  fun () ->
    let reads =
      W.Rng.shuffle rng
        (List.init points_per_block (fun _ -> `Point)
        @ List.init ranges_per_block (fun _ -> `Range))
      |> List.map (function `Point -> point () | `Range -> range ())
    in
    let round_at = W.Rng.int rng (List.length reads + 1) in
    let updates = List.init writes_per_kind (fun _ -> update ()) in
    let inserts = List.init writes_per_kind (fun _ -> insert ()) in
    { reads; round_at; updates; inserts }
