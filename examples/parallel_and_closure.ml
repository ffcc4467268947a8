(* The extensions from the paper's conclusions: PRISMA-style parallel
   execution (the planner's Exchange operator, whose fragments run on
   the domain pool) and the transitive closure operator, on a
   flight-network scenario.

     dune exec examples/parallel_and_closure.exe *)

open Mxra_relational
open Mxra_core
open Mxra_ext
module Engine = Mxra_engine
module W = Mxra_workload

(* Plan [e] at [parts] fragments and run it under EXPLAIN ANALYZE.
   [cores] is pinned so the plan shape is the same on any host, and the
   explicit threshold keeps earlier runs' measured feedback out of it. *)
let analyze db ~parts e =
  let plan =
    Engine.Planner.plan ~jobs:parts ~cores:parts
      ~parallel_threshold:Engine.Planner.default_parallel_threshold db e
  in
  Engine.Exec.run_instrumented db plan

(* The input rows of the largest fragment, as the Exchange at the root
   of the plan reports it; a sequential plan is one fragment. *)
let max_part ~total a =
  Option.value ~default:total
    (List.assoc_opt "max-part" a.Engine.Exec.root.Engine.Exec.actual.details)

let () =
  let rng = W.Rng.make 99 in
  Pool.set_default_size (min 4 (Engine.Planner.available_cores ()));

  (* --- parallel grouping ----------------------------------------------- *)
  let sales = W.Synth.two_column_int ~rng ~size:100_000 ~distinct:512 in
  Format.printf "sales: %d tuples, %d distinct@.@." (Relation.cardinal sales)
    (Relation.support_size sales);
  let skewed =
    W.Synth.relation ~rng
      ~schema:(Schema.of_list [ ("k", Domain.DInt); ("v", Domain.DInt) ])
      ~size:50_000 ~dup_factor:4 ~skew:1.3 ()
  in
  let db = Database.of_relations [ ("sales", sales); ("skewed", skewed) ] in
  let by_region = Expr.group_by [ 1 ] [ (Aggregate.Sum, 2) ] (Expr.rel "sales") in

  (* Γ distributes over partitioning on the grouping attribute, so the
     planner may split it into key-aligned fragments; the work-balance
     bound total / max-part is the speedup that fragmentation allows. *)
  Format.printf "parallel grouping (Γ region → SUM) by fragment count:@.";
  let total = Relation.support_size sales in
  List.iter
    (fun parts ->
      let m = max_part ~total (analyze db ~parts by_region) in
      Format.printf "  p=%2d  max fragment=%6d tuples  work-balance bound=%.2fx@."
        parts m
        (float_of_int total /. float_of_int m))
    [ 1; 2; 4; 8; 16 ];
  Format.printf "@.EXPLAIN ANALYZE at p=4:@.%s@.@."
    (Engine.Exec.analysis_to_string (analyze db ~parts:4 by_region));

  (* Skew breaks it: a Zipf-heavy key column concentrates the work. *)
  let by_key = Expr.group_by [ 1 ] [ (Aggregate.Cnt, 1) ] (Expr.rel "skewed") in
  let a = analyze db ~parts:8 by_key in
  let total = Relation.support_size skewed in
  Format.printf
    "same with a Zipf(1.3) key column, p=8: bound only %.2fx@.@."
    (float_of_int total /. float_of_int (max_part ~total a));

  (* Correctness is never at stake — the merged fragments equal the
     sequential operator (tested; shown here once). *)
  Format.printf "partitioned result = sequential result: %b@.@."
    (Relation.equal (Eval.eval db by_key) a.Engine.Exec.result);

  (* --- transitive closure ---------------------------------------------- *)
  let flight_schema =
    Schema.of_list [ ("from", Domain.DStr); ("to", Domain.DStr) ]
  in
  let hop a b = Tuple.of_list [ Value.Str a; Value.Str b ] in
  let flights =
    Relation.of_list flight_schema
      [
        hop "AMS" "LHR"; hop "LHR" "JFK"; hop "JFK" "SFO";
        hop "AMS" "CDG"; hop "CDG" "JFK"; hop "SFO" "NRT";
        hop "NRT" "SYD"; hop "BRU" "AMS";
      ]
  in
  Format.printf "direct flights:@.%a@.@." Relation.pp_table flights;
  let reachable = Closure.closure flights in
  Format.printf "reachable city pairs (α, transitive closure): %d@.@."
    (Relation.cardinal reachable);
  Format.printf "reachable from AMS: %s@.@."
    (String.concat ", "
       (List.map Value.to_string (Closure.reachable flights (Value.Str "AMS"))));

  (* Closure composes with the algebra: reachability over a *selected*
     subnetwork (drop transatlantic hops via JFK). *)
  let no_jfk =
    Expr.select
      (Pred.And
         (Pred.ne (Scalar.attr 1) (Scalar.str "JFK"),
          Pred.ne (Scalar.attr 2) (Scalar.str "JFK")))
      (Expr.const flights)
  in
  let reduced = Closure.closure_expr no_jfk Database.empty in
  Format.printf "pairs without JFK connections: %d@.@."
    (Relation.cardinal reduced);

  (* Scaling: semi-naive vs naive on a growing random DAG. *)
  Format.printf "closure scaling (random DAGs):@.";
  List.iter
    (fun nodes ->
      let g = W.Synth.chain_relation ~rng ~nodes ~extra_edges:nodes in
      let t0 = Unix.gettimeofday () in
      let c = Closure.closure g in
      let semi = (Unix.gettimeofday () -. t0) *. 1000.0 in
      let t0 = Unix.gettimeofday () in
      ignore (Closure.closure_naive g);
      let naive = (Unix.gettimeofday () -. t0) *. 1000.0 in
      Format.printf
        "  n=%4d  edges=%5d  closure=%7d pairs  semi-naive %.1f ms  naive %.1f ms@."
        nodes (Relation.cardinal g) (Relation.cardinal c) semi naive)
    [ 50; 100; 200; 400 ]
