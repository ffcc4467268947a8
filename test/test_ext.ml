(* Extension tests: transitive closure (naive vs semi-naive agreement,
   cycles, reachability) and the partitioning laws of the engine's
   Exchange, whose fragments run on the domain pool ([Pool]). *)

open Mxra_relational
open Mxra_core
open Mxra_ext
module W = Mxra_workload
module Engine = Mxra_engine

let edge_schema = Schema.of_list [ ("src", Domain.DInt); ("dst", Domain.DInt) ]
let edge a b = Tuple.of_list [ Value.Int a; Value.Int b ]
let graph edges = Relation.of_list edge_schema (List.map (fun (a, b) -> edge a b) edges)

(* --- closure -------------------------------------------------------------- *)

let test_closure_chain () =
  let r = Closure.closure (graph [ (1, 2); (2, 3); (3, 4) ]) in
  Alcotest.(check int) "all 6 pairs" 6 (Relation.cardinal r);
  Alcotest.(check int) "transitive pair" 1 (Relation.multiplicity (edge 1 4) r);
  Alcotest.(check int) "no reverse pair" 0 (Relation.multiplicity (edge 4 1) r)

let test_closure_cycle_terminates () =
  let r = Closure.closure (graph [ (1, 2); (2, 3); (3, 1) ]) in
  (* On a 3-cycle every ordered pair including self-loops is reachable. *)
  Alcotest.(check int) "9 pairs on a 3-cycle" 9 (Relation.cardinal r);
  Alcotest.(check int) "self loop derived" 1 (Relation.multiplicity (edge 1 1) r)

let test_closure_set_semantics () =
  (* Duplicate edges in the input do not create duplicate pairs. *)
  let input = Relation.of_counted_list edge_schema [ (edge 1 2, 5) ] in
  let r = Closure.closure input in
  Alcotest.(check int) "multiplicity 1" 1 (Relation.multiplicity (edge 1 2) r)

let test_closure_naive_agrees () =
  let rng = W.Rng.make 11 in
  for _ = 1 to 20 do
    let g = W.Synth.chain_relation ~rng ~nodes:12 ~extra_edges:8 in
    Alcotest.(check bool) "naive = semi-naive" true
      (Relation.equal (Closure.closure g) (Closure.closure_naive g))
  done

let test_closure_reachable_and_iterations () =
  let g = graph [ (1, 2); (2, 3); (5, 6) ] in
  Alcotest.(check (list bool)) "reachable from 1"
    [ true; true ]
    (List.map
       (fun v -> List.exists (Value.equal (Value.Int v)) (Closure.reachable g (Value.Int 1)))
       [ 2; 3 ]);
  Alcotest.(check bool) "6 not reachable from 1" false
    (List.exists (Value.equal (Value.Int 6)) (Closure.reachable g (Value.Int 1)));
  Alcotest.(check bool) "chain depth logarithmic-ish rounds" true
    (Closure.iterations (W.Synth.chain_relation ~rng:(W.Rng.make 3) ~nodes:16 ~extra_edges:0) <= 16)

let test_closure_rejects_non_binary () =
  let bad = Relation.empty (Schema.of_list [ ("a", Domain.DInt) ]) in
  Alcotest.(check bool) "unary rejected" true
    (match Closure.closure bad with
    | _ -> false
    | exception Closure.Not_binary _ -> true);
  let mixed = Relation.empty (Schema.of_list [ ("a", Domain.DInt); ("b", Domain.DStr) ]) in
  Alcotest.(check bool) "mixed domains rejected" true
    (match Closure.closure mixed with
    | _ -> false
    | exception Closure.Not_binary _ -> true)

let test_closure_expr () =
  let db = Database.of_relations [ ("g", graph [ (1, 2); (2, 3) ]) ] in
  let r = Closure.closure_expr (Expr.rel "g") db in
  Alcotest.(check int) "closure of expression" 3 (Relation.cardinal r)

(* --- Exchange partitioning ------------------------------------------------ *)

let rng = W.Rng.make 99
let kv_schema = Schema.of_list [ ("k", Domain.DInt); ("v", Domain.DInt) ]

(* Plan [e] for [parts] fragments — threshold 0 forces Exchange above
   the operator — and run it with EXPLAIN ANALYZE's gauges. *)
let analyze ~parts db e =
  Engine.Exec.run_instrumented db
    (Engine.Planner.plan ~jobs:parts ~cores:parts ~parallel_threshold:0 db e)

let detail a key =
  List.assoc key a.Engine.Exec.root.Engine.Exec.actual.details

let test_partition_merge_identity () =
  (* Hand-built Exchanges, so one fragment is allowed too: a σ that
     keeps everything runs over contiguous slices, a Γ on every
     attribute over hash buckets.  Either way each counted element lands
     in exactly one fragment and the merge gives the input back. *)
  for parts = 1 to 5 do
    let r = W.Synth.two_column_int ~rng ~size:60 ~distinct:10 in
    let db = Database.of_relations [ ("r", r) ] in
    let exchange child = Engine.Physical.Exchange { parts; child } in
    let scan = Engine.Physical.Seq_scan "r" in
    Alcotest.(check bool)
      (Printf.sprintf "slice partition/merge identity (p=%d)" parts)
      true
      (Relation.equal r
         (Engine.Exec.run db (exchange (Engine.Physical.Filter (Pred.True, scan)))));
    let aggs = [ (Aggregate.Cnt, 1) ] in
    Alcotest.(check bool) "hash partition/merge identity" true
      (Relation.equal
         (Eval.group_by [ 1; 2 ] aggs r)
         (Engine.Exec.run db
            (exchange (Engine.Physical.Hash_aggregate ([ 1; 2 ], aggs, scan)))))
  done

let test_par_select () =
  let r = W.Synth.two_column_int ~rng ~size:80 ~distinct:9 in
  let db = Database.of_relations [ ("r", r) ] in
  let e = Expr.select (Pred.lt (Scalar.attr 1) (Scalar.int 4)) (Expr.rel "r") in
  let a = analyze ~parts:4 db e in
  Alcotest.(check bool) "σ distributes over partitioning" true
    (Relation.equal (Eval.eval db e) a.Engine.Exec.result);
  (* Slices are contiguous and even: the largest holds ⌈n/4⌉. *)
  Alcotest.(check int) "work accounted"
    ((Relation.support_size r + 3) / 4)
    (detail a "max-part")

let test_par_project () =
  (* Six counted tuples of multiplicity 1000 whose images collide across
     fragments: fragments move counted elements, not expanded rows, and
     the merge adds the multiplicities of equal images. *)
  let r =
    Relation.of_counted_list kv_schema
      (List.init 6 (fun i ->
           (Tuple.of_list [ Value.Int i; Value.Int (5 - i) ], 1000)))
  in
  let db = Database.of_relations [ ("r", r) ] in
  let e =
    Expr.project [ Scalar.add (Scalar.attr 1) (Scalar.attr 2) ] (Expr.rel "r")
  in
  let a = analyze ~parts:3 db e in
  Alcotest.(check bool) "π distributes over partitioning" true
    (Relation.equal (Eval.eval db e) a.Engine.Exec.result);
  Alcotest.(check int) "one image, every row" 6000
    (Relation.multiplicity (Tuple.of_list [ Value.Int 5 ]) a.Engine.Exec.result);
  Alcotest.(check int) "two counted elements per fragment" 2
    (detail a "max-part")

let test_par_join () =
  (* The residual conjunct stays inside each co-partitioned fragment. *)
  let left, right = W.Synth.join_pair ~rng ~left:60 ~right:40 ~key_range:8 in
  let db = Database.of_relations [ ("l", left); ("r", right) ] in
  let e =
    Expr.join
      (Pred.And
         (Pred.eq (Scalar.attr 1) (Scalar.attr 3),
          Pred.lt (Scalar.attr 2) (Scalar.attr 4)))
      (Expr.rel "l") (Expr.rel "r")
  in
  let a = analyze ~parts:4 db e in
  Alcotest.(check bool) "Exchange over a residual hash join" true
    (match a.Engine.Exec.root.Engine.Exec.node with
    | Engine.Physical.Exchange
        { child = Engine.Physical.Hash_join { residual; _ }; _ } ->
        residual <> Pred.True
    | _ -> false);
  Alcotest.(check bool) "co-partitioned join = sequential join" true
    (Relation.equal (Eval.eval db e) a.Engine.Exec.result)

let test_par_group_by () =
  let r = W.Synth.two_column_int ~rng ~size:70 ~distinct:6 in
  let db = Database.of_relations [ ("r", r) ] in
  let aggs = [ (Aggregate.Sum, 2); (Aggregate.Cnt, 1) ] in
  let grouped = Expr.group_by [ 1 ] aggs (Expr.rel "r") in
  let a = analyze ~parts:4 db grouped in
  Alcotest.(check bool) "Γ distributes over key partitioning" true
    (Relation.equal (Eval.eval db grouped) a.Engine.Exec.result);
  Alcotest.(check int) "one output tuple per key" 6
    (Relation.cardinal a.Engine.Exec.result);
  (* Empty attrs is Definition 3.4's global aggregate, computed as
     per-fragment partials combined associatively. *)
  let global = Expr.group_by [] aggs (Expr.rel "r") in
  Alcotest.(check bool) "global aggregate = partial-then-combine" true
    (Relation.equal (Eval.eval db global)
       (analyze ~parts:2 db global).Engine.Exec.result)

let test_skew_hurts_speedup () =
  (* [total / max-part] bounds what p fragments can gain.  A single hot
     join key co-partitions every row of both sides into one fragment:
     the bound collapses to 1.  Balanced keys approach p. *)
  let bound left right =
    let db = Database.of_relations [ ("l", left); ("r", right) ] in
    let e =
      Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "l")
        (Expr.rel "r")
    in
    let a = analyze ~parts:4 db e in
    Alcotest.(check bool) "join under Exchange = Eval" true
      (Relation.equal (Eval.eval db e) a.Engine.Exec.result);
    float_of_int (Relation.support_size left + Relation.support_size right)
    /. float_of_int (detail a "max-part")
  in
  let hot n =
    Relation.of_counted_list kv_schema
      (List.init n (fun i -> (Tuple.of_list [ Value.Int 0; Value.Int i ], 1)))
  in
  Alcotest.(check (float 1e-9)) "hot key kills parallelism" 1.0
    (bound (hot 40) (hot 5));
  let left, right =
    W.Synth.join_pair ~rng ~left:2000 ~right:500 ~key_range:64
  in
  Alcotest.(check bool) "balanced keys parallelise" true
    (bound left right > 2.0)

let suite =
  ( "ext",
    [
      Alcotest.test_case "closure of a chain" `Quick test_closure_chain;
      Alcotest.test_case "closure terminates on cycles" `Quick
        test_closure_cycle_terminates;
      Alcotest.test_case "closure has set semantics" `Quick test_closure_set_semantics;
      Alcotest.test_case "naive = semi-naive" `Quick test_closure_naive_agrees;
      Alcotest.test_case "reachability and iterations" `Quick
        test_closure_reachable_and_iterations;
      Alcotest.test_case "non-binary inputs rejected" `Quick
        test_closure_rejects_non_binary;
      Alcotest.test_case "closure of an expression" `Quick test_closure_expr;
      Alcotest.test_case "partition/merge identity" `Quick test_partition_merge_identity;
      Alcotest.test_case "parallel selection" `Quick test_par_select;
      Alcotest.test_case "parallel projection" `Quick test_par_project;
      Alcotest.test_case "parallel join" `Quick test_par_join;
      Alcotest.test_case "parallel grouping" `Quick test_par_group_by;
      Alcotest.test_case "skew and speedup" `Quick test_skew_hurts_speedup;
    ] )
