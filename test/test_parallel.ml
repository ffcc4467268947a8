(* Property tests for real-multicore execution: every Exchange-wrapped
   physical plan computes the same bag as the sequential reference
   evaluator, for random inputs and every fragment count in 1..8.  These
   are the distribution laws of Theorem 3.2 exercised on actual worker
   domains. *)

open Mxra_relational
open Mxra_core
module Engine = Mxra_engine
module W = Mxra_workload
module Pool = Mxra_ext.Pool

(* One shared pool for the whole suite — a per-iteration pool would
   spawn thousands of domains across the qcheck runs. *)
let () = Pool.set_default_size 4

let seed_and_parts = QCheck.(pair small_nat (int_range 1 8))

(* Integer columns keep the partial-aggregate arithmetic exact (sums of
   small ints are exact in float far past these sizes), so strict
   [Relation.equal] is the right check even for SUM and AVG. *)
let random_bag seed =
  let rng = W.Rng.make (seed + 1) in
  W.Synth.two_column_int ~rng
    ~size:(40 + (seed mod 60))
    ~distinct:(1 + (seed mod 12))

let prop name f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:100 seed_and_parts f)

(* --- one law per operator, through the planner ------------------------- *)

(* Plan [e] for [parts] fragments (threshold 0 forces Exchange above
   the operator) and check the law on the pooled run: the bag equals the
   reference evaluator's; with more than one fragment the plan's root is
   an Exchange of [parts] fragments; and those fragments account for all
   [input] counted elements — the largest holds at least the average and
   at most all of them. *)
let pooled_matches ~parts ~input db e =
  let plan =
    Engine.Planner.plan ~jobs:parts ~cores:parts ~parallel_threshold:0 db e
  in
  let a = Engine.Exec.run_instrumented db plan in
  let details = a.Engine.Exec.root.Engine.Exec.actual.details in
  Relation.equal (Eval.eval db e) a.Engine.Exec.result
  &&
  if parts = 1 then Engine.Physical.exchange_count plan = 0
  else
    List.assoc_opt "parts" details = Some parts
    &&
    match List.assoc_opt "max-part" details with
    | Some m -> m <= input && m * parts >= input
    | None -> false

let pooled_unary name e =
  prop name (fun (seed, parts) ->
      let r = random_bag seed in
      pooled_matches ~parts ~input:(Relation.support_size r)
        (Database.of_relations [ ("r", r) ])
        (e (Expr.rel "r")))

let par_select_matches =
  pooled_unary "pooled σ = Eval.select"
    (Expr.select (Pred.lt (Scalar.attr 1) (Scalar.int 6)))

let par_project_matches =
  pooled_unary "pooled π = Eval.project"
    (Expr.project [ Scalar.add (Scalar.attr 1) (Scalar.attr 2); Scalar.attr 1 ])

let par_join_matches =
  prop "pooled co-partitioned ⋈ = Eval.join" (fun (seed, parts) ->
      let rng = W.Rng.make (seed + 1) in
      let left, right = W.Synth.join_pair ~rng ~left:50 ~right:30 ~key_range:8 in
      pooled_matches ~parts
        ~input:(Relation.support_size left + Relation.support_size right)
        (Database.of_relations [ ("l", left); ("r", right) ])
        (Expr.join
           (Pred.eq (Scalar.attr 1) (Scalar.attr 3))
           (Expr.rel "l") (Expr.rel "r")))

let par_join_multi_key_matches =
  prop "pooled ⋈ on two key attributes = Eval.join" (fun (seed, parts) ->
      let r = random_bag seed in
      pooled_matches ~parts ~input:(2 * Relation.support_size r)
        (Database.of_relations [ ("r", r) ])
        (Expr.join
           (Pred.And
              (Pred.eq (Scalar.attr 1) (Scalar.attr 3),
               Pred.eq (Scalar.attr 2) (Scalar.attr 4)))
           (Expr.rel "r") (Expr.rel "r")))

let par_group_by_matches =
  pooled_unary "pooled Γ on keys = Eval.group_by"
    (Expr.group_by [ 1 ] [ (Aggregate.Sum, 2); (Aggregate.Cnt, 1) ])

let par_group_by_multi_attr_matches =
  pooled_unary "pooled Γ on two attributes = Eval.group_by"
    (Expr.group_by [ 1; 2 ] [ (Aggregate.Cnt, 1) ])

let par_global_aggregate_matches =
  pooled_unary "pooled global aggregate = Eval.group_by []"
    (Expr.group_by []
       [
         (Aggregate.Cnt, 1);
         (Aggregate.Sum, 2);
         (Aggregate.Avg, 2);
         (Aggregate.Min, 1);
         (Aggregate.Max, 2);
       ])

(* The engine path: plan a query, force Exchange above every eligible
   operator (threshold 0), and compare the executed bag against the
   reference evaluator — σ, π, one- and two-key joins, Γ on one and two
   attributes and global aggregate shapes. *)
let two_key_self_join r =
  Expr.join
    (Pred.And
       (Pred.eq (Scalar.attr 1) (Scalar.attr 3),
        Pred.eq (Scalar.attr 2) (Scalar.attr 4)))
    r r

let exchange_plans_match =
  let queries r_bag =
    let join =
      Expr.join
        (Pred.eq (Scalar.attr 1) (Scalar.attr 3))
        (Expr.rel "a") (Expr.rel "b")
    in
    [
      Expr.select (Pred.lt (Scalar.attr 2) (Scalar.int 8)) (Expr.rel "a");
      Expr.project_attrs [ 2 ] (Expr.rel "a");
      join;
      two_key_self_join (Expr.rel "a");
      Expr.group_by [ 1 ] [ (Aggregate.Sum, 2) ] join;
      Expr.group_by [ 1; 2 ] [ (Aggregate.Cnt, 1) ] (Expr.rel "a");
      Expr.group_by []
        [ (Aggregate.Cnt, 1); (Aggregate.Sum, 2); (Aggregate.Avg, 2) ]
        (Expr.rel "a");
      Expr.group_by [] [ (Aggregate.Min, 1); (Aggregate.Max, 2) ] r_bag;
    ]
  in
  prop "Exchange plans = Eval (threshold 0)" (fun (seed, parts) ->
      let rng = W.Rng.make (seed + 1) in
      let a = random_bag seed in
      let b, _ = W.Synth.join_pair ~rng ~left:30 ~right:10 ~key_range:6 in
      let db = Database.of_relations [ ("a", a); ("b", b) ] in
      let stats = Engine.Stats.env_of_database db in
      let schemas = Typecheck.env_of_database db in
      List.for_all
        (fun e ->
          (* [cores:parts] because the planner's 1-core guard would
             otherwise (correctly) refuse to insert Exchange on a
             single-core test host. *)
          let plan =
            Engine.Planner.parallelize ~stats ~schemas ~jobs:parts ~cores:parts
              ~threshold:0
              (Engine.Planner.plan db e)
          in
          Relation.equal (Eval.eval db e) (Engine.Exec.run db plan))
        (queries (Expr.Const a)))

(* --- the differential harness ------------------------------------------ *)

(* The executor's contract: execution is bag-equal to the reference
   evaluator for {e every} physical operator, at every fragment count
   in {1, 2, 4}. *)

let jobs_list = [ 1; 2; 4 ]

let diff_db seed =
  let rng = W.Rng.make (seed + 1) in
  let a = random_bag seed in
  let b, c = W.Synth.join_pair ~rng ~left:30 ~right:20 ~key_range:6 in
  (a, Database.of_relations [ ("a", a); ("b", b); ("c", c) ])

(* One expression per physical operator (the planner maps the equi-join
   to Hash_join, the non-equi join to Nested_loop), plus the two-key
   join and two-attribute Γ shapes; [operator_coverage] below pins that
   this list really does reach every constructor. *)
let operator_exprs a =
  let eq13 = Pred.eq (Scalar.attr 1) (Scalar.attr 3) in
  let j = Expr.join eq13 (Expr.rel "b") (Expr.rel "c") in
  [
    Expr.Const a;
    Expr.rel "a";
    Expr.select (Pred.lt (Scalar.attr 2) (Scalar.int 6)) (Expr.rel "a");
    Expr.project [ Scalar.add (Scalar.attr 1) (Scalar.attr 2) ] (Expr.rel "a");
    j;
    Expr.join (Pred.lt (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "b")
      (Expr.rel "c");
    Expr.product (Expr.rel "a") (Expr.rel "c");
    Expr.union (Expr.rel "a") (Expr.rel "a");
    Expr.diff (Expr.rel "a") (Expr.rel "b");
    Expr.intersect (Expr.rel "a") (Expr.rel "b");
    Expr.unique (Expr.rel "a");
    Expr.group_by [ 1 ] [ (Aggregate.Sum, 2); (Aggregate.Cnt, 1) ] j;
    Expr.group_by []
      [
        (Aggregate.Cnt, 1);
        (Aggregate.Sum, 2);
        (Aggregate.Avg, 2);
        (Aggregate.Min, 1);
        (Aggregate.Max, 2);
      ]
      (Expr.rel "a");
    two_key_self_join (Expr.rel "a");
    Expr.group_by [ 1; 2 ] [ (Aggregate.Cnt, 1) ] (Expr.rel "a");
  ]

(* [cores:jobs] so the plan shape is host-independent; threshold 0
   forces Exchange above every eligible operator when jobs > 1. *)
let plan_at ~jobs db e =
  Engine.Planner.plan ~jobs ~cores:jobs ~parallel_threshold:0 db e

let test_operator_coverage () =
  let a, db = diff_db 0 in
  let rec kinds plan acc =
    List.fold_left
      (fun acc child -> kinds child acc)
      (Engine.Physical.kind plan :: acc)
      (Engine.Physical.children plan)
  in
  let reached =
    List.concat_map
      (fun e -> kinds (plan_at ~jobs:4 db e) [])
      (operator_exprs a)
  in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        ("differential harness reaches " ^ k)
        true (List.mem k reached))
    [
      "ConstScan"; "SeqScan"; "Filter"; "Project"; "HashJoin";
      "NestedLoop"; "CrossProduct"; "UnionAll"; "HashDiff"; "HashIntersect";
      "HashDistinct"; "HashAggregate"; "Exchange";
    ]

let operators_match_eval =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"exec = Eval, all operators × jobs" ~count:25
       QCheck.small_nat (fun seed ->
         let a, db = diff_db seed in
         List.for_all
           (fun e ->
             let expected = Eval.eval db e in
             List.for_all
               (fun jobs ->
                 Relation.equal expected (Engine.Exec.run db (plan_at ~jobs db e)))
               jobs_list)
           (operator_exprs a)))

(* Metamorphic: beyond matching Eval, every jobs width must agree with
   every other — on random well-typed expressions, so shapes the
   hand-written operator list misses are covered too. *)
let metamorphic_jobs =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"identical results across all jobs widths"
       ~count:40 QCheck.small_nat (fun seed ->
         let scen = W.Gen_expr.scenario ~seed ~depth:4 in
         let db = scen.W.Gen_expr.db in
         match
           List.map
             (fun jobs ->
               Engine.Exec.run db
                 (Engine.Planner.plan ~jobs ~cores:jobs ~parallel_threshold:0
                    db scen.W.Gen_expr.expr))
             jobs_list
         with
         | [] -> true
         | r0 :: rest -> List.for_all (Relation.equal r0) rest
         | exception Aggregate.Undefined _ -> true))

(* --- edge-case inputs ------------------------------------------------- *)

let s_kv = Schema.of_list [ ("k", Domain.DInt); ("v", Domain.DInt) ]
let kv a b = Tuple.of_list [ Value.Int a; Value.Int b ]

let check_equals_eval name db e =
  let expected = Eval.eval db e in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "%s (jobs=%d)" name jobs)
        true
        (Relation.equal expected (Engine.Exec.run db (plan_at ~jobs db e))))
    jobs_list

let test_edge_empty () =
  let db =
    Database.of_relations
      [
        ("a", Relation.empty s_kv);
        ("b", Relation.empty s_kv);
        ("c", Relation.of_counted_list s_kv [ (kv 1 1, 2) ]);
      ]
  in
  List.iter
    (fun (name, e) -> check_equals_eval name db e)
    [
      ("σ over empty", Expr.select (Pred.lt (Scalar.attr 1) (Scalar.int 3)) (Expr.rel "a"));
      ("empty ⋈ non-empty", Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "a") (Expr.rel "c"));
      ("non-empty − all", Expr.diff (Expr.rel "c") (Expr.rel "c"));
      ("Γ keys over empty", Expr.group_by [ 1 ] [ (Aggregate.Cnt, 1) ] (Expr.rel "a"));
    ]

let test_edge_510_rows () =
  (* 510 distinct rows in 17 groups. *)
  let rows = List.init 510 (fun i -> (kv (i mod 17) i, 1)) in
  let db = Database.of_relations [ ("a", Relation.of_counted_list s_kv rows) ] in
  List.iter
    (fun (name, e) -> check_equals_eval name db e)
    [
      ("σ over 510 rows", Expr.select (Pred.lt (Scalar.attr 1) (Scalar.int 9)) (Expr.rel "a"));
      ("δ over 510 rows", Expr.unique (Expr.project_attrs [ 1 ] (Expr.rel "a")));
      ("Γ over 510 rows", Expr.group_by [ 1 ] [ (Aggregate.Sum, 2) ] (Expr.rel "a"));
    ]

let test_edge_duplicates () =
  (* Duplicate-heavy bags: large multiplicities, and a ⊎-chain whose
     equal tuples arrive as separate elements that the consumers must
     merge. *)
  let heavy =
    Relation.of_counted_list s_kv
      [ (kv 1 1, 1000); (kv 2 2, 997); (kv 3 3, 1) ]
  in
  let db = Database.of_relations [ ("a", heavy) ] in
  let chain =
    Expr.union (Expr.rel "a") (Expr.union (Expr.rel "a") (Expr.rel "a"))
  in
  List.iter
    (fun (name, e) -> check_equals_eval name db e)
    [
      ("δ over multiplicity 1000", Expr.unique (Expr.rel "a"));
      ("Γ over multiplicity 1000", Expr.group_by [ 1 ] [ (Aggregate.Cnt, 1); (Aggregate.Sum, 2) ] (Expr.rel "a"));
      ("⊎-chain of duplicates", chain);
      ("δ over ⊎-chain", Expr.unique chain);
      ("self-⋈ of duplicates", Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "a") (Expr.rel "a"));
      ("3·bag − 2·bag", Expr.diff chain (Expr.union (Expr.rel "a") (Expr.rel "a")));
    ]

(* --- the adaptive planner's 1-core guarantee --------------------------- *)

let test_one_core_never_exchanges () =
  let a, db = diff_db 3 in
  let exprs = operator_exprs a in
  (* jobs=4 on a 1-core host: every plan must be purely sequential, even
     with the profitability floor forced to zero. *)
  List.iter
    (fun e ->
      let plan = Engine.Planner.plan ~jobs:4 ~cores:1 ~parallel_threshold:0 db e in
      Alcotest.(check int)
        ("no Exchange on one core: " ^ Expr.to_string e)
        0
        (Engine.Physical.exchange_count plan))
    exprs;
  (* Sanity: the same request on a 4-core host does parallelize. *)
  let some_exchange =
    List.exists
      (fun e ->
        Engine.Physical.exchange_count
          (Engine.Planner.plan ~jobs:4 ~cores:4 ~parallel_threshold:0 db e)
        > 0)
      exprs
  in
  Alcotest.(check bool) "four cores do parallelize" true some_exchange;
  (* And parallelize itself honours the guard, not just plan. *)
  let stats = Engine.Stats.env_of_database db in
  let schemas = Typecheck.env_of_database db in
  let seq = Engine.Planner.plan db (List.nth exprs 4) in
  Alcotest.(check int) "parallelize is the identity on one core" 0
    (Engine.Physical.exchange_count
       (Engine.Planner.parallelize ~stats ~schemas ~jobs:8 ~cores:1
          ~threshold:0 seq))

let test_feedback_bar () =
  Engine.Planner.Feedback.reset ();
  Alcotest.(check (option int)) "no observations, no bar" None
    (Engine.Planner.Feedback.min_profitable_rows ());
  (* A loss at 1000 rows: only inputs past 2000 are worth trying. *)
  Engine.Planner.Feedback.note ~rows:1000 ~gain_ms:(-2.0);
  Alcotest.(check (option int)) "loss doubles the bar" (Some 2000)
    (Engine.Planner.Feedback.min_profitable_rows ());
  (* A win at 5000 rows cannot lower the bar below the observed loss
     region's ceiling... *)
  Engine.Planner.Feedback.note ~rows:5000 ~gain_ms:1.5;
  Alcotest.(check (option int)) "win above the bar keeps it" (Some 2000)
    (Engine.Planner.Feedback.min_profitable_rows ());
  (* ...but a win at a smaller size pulls it down. *)
  Engine.Planner.Feedback.note ~rows:800 ~gain_ms:0.5;
  Alcotest.(check (option int)) "smaller win lowers the bar" (Some 800)
    (Engine.Planner.Feedback.min_profitable_rows ());
  Alcotest.(check int) "observations counted" 3
    (Engine.Planner.Feedback.observations ());
  (* Zero-row reports are noise and must be ignored. *)
  Engine.Planner.Feedback.note ~rows:0 ~gain_ms:(-1.0);
  Alcotest.(check (option int)) "zero rows ignored" (Some 800)
    (Engine.Planner.Feedback.min_profitable_rows ());
  Engine.Planner.Feedback.reset ();
  Alcotest.(check (option int)) "reset clears the bar" None
    (Engine.Planner.Feedback.min_profitable_rows ());
  Alcotest.(check int) "reset clears the count" 0
    (Engine.Planner.Feedback.observations ())

(* Skew bounds the work balance of a real Exchange: EXPLAIN ANALYZE
   reports the input rows of its largest fragment as [max-part].  A
   single hot key puts every row of a grouped Γ in one fragment; balanced
   keys spread them over all four. *)
let test_skew_bounds_work_balance () =
  let max_part r =
    let db = Database.of_relations [ ("r", r) ] in
    let e = Expr.group_by [ 1 ] [ (Aggregate.Cnt, 1) ] (Expr.rel "r") in
    let plan =
      Engine.Planner.plan ~jobs:4 ~cores:4 ~parallel_threshold:0 db e
    in
    let a = Engine.Exec.run_instrumented db plan in
    Alcotest.(check bool) "grouped Γ under Exchange = Eval" true
      (Relation.equal (Eval.eval db e) a.Engine.Exec.result);
    List.assoc "max-part" a.Engine.Exec.root.Engine.Exec.actual.details
  in
  let hot =
    Relation.of_counted_list s_kv (List.init 40 (fun i -> (kv 0 i, 1)))
  in
  Alcotest.(check int) "hot key: one fragment does all the work" 40
    (max_part hot);
  let balanced =
    W.Synth.two_column_int ~rng:(W.Rng.make 99) ~size:4000 ~distinct:64
  in
  Alcotest.(check bool) "balanced keys spread the work" true
    (max_part balanced < 2000)

let detail (a : Engine.Exec.analysis) key =
  List.assoc_opt key a.Engine.Exec.root.Engine.Exec.actual.details

(* The join kernel's table holds one entry per distinct build key, all
   of that key's rows chained under it: HashJoin's [keys] gauge counts
   keys, [build] counts the build side's counted elements, and chained
   rows keep their multiplicities through the probe. *)
let test_join_build_gauges () =
  let build =
    Relation.of_counted_list s_kv
      (List.init 30 (fun i -> (kv (i mod 6) i, 1 + (i mod 3))))
  in
  let probe_side =
    Relation.of_counted_list s_kv (List.init 10 (fun i -> (kv i i, 2)))
  in
  let db = Database.of_relations [ ("p", probe_side); ("b", build) ] in
  let plan =
    Engine.Physical.Hash_join
      {
        left_keys = [ 1 ];
        right_keys = [ 1 ];
        left_arity = 2;
        residual = Pred.True;
        left = Engine.Physical.Seq_scan "p";
        right = Engine.Physical.Seq_scan "b";
      }
  in
  let a = Engine.Exec.run_instrumented db plan in
  Alcotest.(check bool) "HashJoin = Eval" true
    (Relation.equal
       (Eval.eval db (Engine.Physical.to_logical plan))
       a.Engine.Exec.result);
  Alcotest.(check (option int)) "build counts elements" (Some 30)
    (detail a "build");
  Alcotest.(check (option int)) "keys counts distinct keys" (Some 6)
    (detail a "keys")

(* Every Exchange fragment emits one worker span whose [rows] attribute
   is that fragment's input: together the spans account for the whole
   input, and the largest is the Exchange's [max-part]. *)
let test_worker_spans () =
  let module Trace = Mxra_obs.Trace in
  let r = W.Synth.two_column_int ~rng:(W.Rng.make 7) ~size:300 ~distinct:20 in
  let n = Relation.support_size r in
  let db = Database.of_relations [ ("r", r) ] in
  let spans = ref [] in
  let sink =
    {
      Trace.on_span = (fun s -> spans := s :: !spans);
      on_event = ignore;
      on_close = ignore;
    }
  in
  List.iter
    (fun (worker, what, e, input) ->
      spans := [];
      Trace.set_sinks [ sink ];
      let a =
        Fun.protect ~finally:Trace.close (fun () ->
            Engine.Exec.run_instrumented db (plan_at ~jobs:4 db e))
      in
      let rows =
        List.filter_map
          (fun (s : Trace.span) ->
            match List.assoc_opt "rows" s.attrs with
            | Some (Trace.Int k) when s.name = worker -> Some k
            | _ -> None)
          !spans
      in
      Alcotest.(check int) (what ^ ": one span per fragment") 4
        (List.length rows);
      Alcotest.(check int) (what ^ ": spans account for the input") input
        (List.fold_left ( + ) 0 rows);
      Alcotest.(check (option int)) (what ^ ": largest span is max-part")
        (detail a "max-part")
        (Some (List.fold_left max 0 rows)))
    [
      ( "scan-worker", "σ",
        Expr.select (Pred.lt (Scalar.attr 1) (Scalar.int 9)) (Expr.rel "r"),
        n );
      ( "agg-worker", "Γ on keys",
        Expr.group_by [ 1 ] [ (Aggregate.Cnt, 1) ] (Expr.rel "r"),
        n );
      ( "agg-worker", "global aggregate",
        Expr.group_by [] [ (Aggregate.Sum, 2) ] (Expr.rel "r"),
        n );
      ( "join-worker", "⋈",
        Expr.join
          (Pred.eq (Scalar.attr 1) (Scalar.attr 3))
          (Expr.rel "r") (Expr.rel "r"),
        2 * n );
    ]

(* Exec reports every Exchange it runs to the planner's feedback, which
   the next unforced plan reads. *)
let test_exchange_feeds_planner () =
  let _, db = diff_db 5 in
  let e =
    Expr.group_by [ 1 ] [ (Aggregate.Sum, 2) ]
      (Expr.join
         (Pred.eq (Scalar.attr 1) (Scalar.attr 3))
         (Expr.rel "b") (Expr.rel "c"))
  in
  let plan = plan_at ~jobs:2 db e in
  Alcotest.(check int) "Γ and ⋈ each under an Exchange" 2
    (Engine.Physical.exchange_count plan);
  Engine.Planner.Feedback.reset ();
  ignore (Engine.Exec.run db plan);
  Alcotest.(check int) "one observation per Exchange" 2
    (Engine.Planner.Feedback.observations ());
  Alcotest.(check bool) "the bar is set" true
    (Engine.Planner.Feedback.min_profitable_rows () <> None);
  Engine.Planner.Feedback.reset ()

(* More fragments than input elements, and no input at all: empty
   fragments contribute nothing — not even a partial group to a global
   aggregate, which still yields its one tuple when every fragment is
   empty (Definition 3.4). *)
let test_empty_fragments () =
  let few = Relation.of_counted_list s_kv [ (kv 1 5, 3); (kv 2 7, 1) ] in
  List.iter
    (fun (name, r) ->
      let db = Database.of_relations [ ("r", r); ("s", few) ] in
      let n = Relation.support_size r in
      List.iter
        (fun (op, e, input) ->
          let what = Printf.sprintf "%s over %s" op name in
          let a = Engine.Exec.run_instrumented db (plan_at ~jobs:8 db e) in
          Alcotest.(check bool) (what ^ " = Eval") true
            (Relation.equal (Eval.eval db e) a.Engine.Exec.result);
          Alcotest.(check (option int)) (what ^ ": eight fragments") (Some 8)
            (detail a "parts");
          Alcotest.(check bool) (what ^ ": max-part within the input") true
            (match detail a "max-part" with
            | Some m -> m <= input && (input = 0 || m > 0)
            | None -> false))
        ([
           ("σ", Expr.select (Pred.lt (Scalar.attr 1) (Scalar.int 2)) (Expr.rel "r"), n);
           ("π", Expr.project_attrs [ 2 ] (Expr.rel "r"), n);
           ("Γ on keys", Expr.group_by [ 1 ] [ (Aggregate.Sum, 2) ] (Expr.rel "r"), n);
           ("global count", Expr.group_by [] [ (Aggregate.Cnt, 1) ] (Expr.rel "r"), n);
           ( "⋈",
             Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "r")
               (Expr.rel "s"),
             n + 2 );
         ]
        @
        if n = 0 then []
        else
          [
            ( "global MIN/MAX",
              Expr.group_by [] [ (Aggregate.Min, 2); (Aggregate.Max, 2) ]
                (Expr.rel "r"),
              n );
          ]))
    [ ("two elements", few); ("the empty bag", Relation.empty s_kv) ]

let suite =
  ( "parallel",
    [
      par_select_matches;
      par_project_matches;
      par_join_matches;
      par_join_multi_key_matches;
      par_group_by_matches;
      par_group_by_multi_attr_matches;
      par_global_aggregate_matches;
      exchange_plans_match;
      Alcotest.test_case "differential harness reaches every operator" `Quick
        test_operator_coverage;
      operators_match_eval;
      metamorphic_jobs;
      Alcotest.test_case "edge cases: empty inputs" `Quick test_edge_empty;
      Alcotest.test_case "edge cases: 510 rows" `Quick test_edge_510_rows;
      Alcotest.test_case "edge cases: duplicate-heavy bags" `Quick
        test_edge_duplicates;
      Alcotest.test_case "adaptive planner: one core, no Exchange" `Quick
        test_one_core_never_exchanges;
      Alcotest.test_case "Exchange feedback bar" `Quick test_feedback_bar;
      Alcotest.test_case "skew and max-part" `Quick test_skew_bounds_work_balance;
      Alcotest.test_case "HashJoin build gauges" `Quick test_join_build_gauges;
      Alcotest.test_case "Exchange worker spans" `Quick test_worker_spans;
      Alcotest.test_case "Exchange feeds the planner" `Quick
        test_exchange_feeds_planner;
      Alcotest.test_case "Exchange with empty fragments" `Quick
        test_empty_fragments;
    ] )
