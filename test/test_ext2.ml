(* Tests for the second wave of extensions: integrity constraints (the
   paper's pointer to [11]), ordered output/cursors (the conclusions'
   inexpressibility remark), and CSV interchange. *)

open Mxra_relational
open Mxra_core
open Mxra_ext
module W = Mxra_workload

let s_emp =
  Schema.of_list
    [ ("id", Domain.DInt); ("dept", Domain.DStr); ("salary", Domain.DInt) ]

let s_dept = Schema.of_list [ ("name", Domain.DStr); ("city", Domain.DStr) ]
let emp i d s = Tuple.of_list [ Value.Int i; Value.Str d; Value.Int s ]
let dept n c = Tuple.of_list [ Value.Str n; Value.Str c ]

let company =
  Database.of_relations
    [
      ("emp",
       Relation.of_list s_emp
         [ emp 1 "toys" 100; emp 2 "toys" 120; emp 3 "food" 90 ]);
      ("dept", Relation.of_list s_dept [ dept "toys" "ams"; dept "food" "utr" ]);
    ]

let env = Typecheck.env_of_database company

(* --- constraints ----------------------------------------------------------- *)

let key_emp = Constraints.Key ("emp", [ 1 ])

let fk =
  Constraints.Foreign_key
    { from_relation = "emp"; from_attrs = [ 2 ]; to_relation = "dept"; to_attrs = [ 1 ] }

let positive_salary =
  Constraints.Check ("emp", Pred.gt (Scalar.attr 3) (Scalar.int 0))

let all_constraints = [ key_emp; fk; positive_salary ]

let test_constraints_validate () =
  List.iter (Constraints.validate env) all_constraints;
  let rejects c =
    match Constraints.validate env c with
    | () -> false
    | exception Constraints.Ill_formed _ -> true
  in
  Alcotest.(check bool) "unknown relation" true
    (rejects (Constraints.Key ("nope", [ 1 ])));
  Alcotest.(check bool) "attr out of range" true
    (rejects (Constraints.Key ("emp", [ 9 ])));
  Alcotest.(check bool) "empty attr list" true
    (rejects (Constraints.Unique ("emp", [])));
  Alcotest.(check bool) "fk domain mismatch" true
    (rejects
       (Constraints.Foreign_key
          { from_relation = "emp"; from_attrs = [ 1 ];
            to_relation = "dept"; to_attrs = [ 1 ] }));
  Alcotest.(check bool) "empty cardinality range" true
    (rejects (Constraints.Cardinality ("emp", Some 5, Some 2)))

let test_constraints_satisfied () =
  Alcotest.(check bool) "clean state satisfies all" true
    (Constraints.satisfied company all_constraints)

let test_key_detects_duplicates_and_collisions () =
  (* Bag subtlety: a duplicated tuple violates a key even though it
     agrees only with itself. *)
  let db =
    Database.set "emp"
      (Relation.of_counted_list s_emp [ (emp 1 "toys" 100, 2) ])
      company
  in
  Alcotest.(check bool) "duplicate tuple breaks key" false
    (Constraints.satisfied db [ key_emp ]);
  Alcotest.(check bool) "but not uniqueness of the support" true
    (Constraints.satisfied db [ Constraints.Unique ("emp", [ 1 ]) ]);
  let db =
    Database.set "emp"
      (Relation.of_list s_emp [ emp 1 "toys" 100; emp 1 "food" 90 ])
      company
  in
  Alcotest.(check int) "key collision reported" 1
    (List.length (Constraints.check db key_emp))

let test_foreign_key () =
  let db =
    Database.set "emp"
      (Relation.of_list s_emp [ emp 1 "ghosts" 50 ])
      company
  in
  match Constraints.check db fk with
  | [ v ] ->
      Alcotest.(check bool) "names the missing target" true
        (let s = Format.asprintf "%a" Constraints.pp_violation v in
         String.length s > 0)
  | other -> Alcotest.fail (Printf.sprintf "expected 1 violation, got %d" (List.length other))

let test_check_and_cardinality () =
  let db =
    Database.set "emp" (Relation.of_list s_emp [ emp 1 "toys" (-5) ]) company
  in
  Alcotest.(check int) "check violation" 1
    (List.length (Constraints.check db positive_salary));
  Alcotest.(check bool) "cardinality bounds" false
    (Constraints.satisfied company
       [ Constraints.Cardinality ("emp", None, Some 2) ]);
  Alcotest.(check bool) "cardinality within" true
    (Constraints.satisfied company
       [ Constraints.Cardinality ("emp", Some 1, Some 10) ])

let test_constraint_guarded_transaction () =
  (* Deferred integrity control: a transaction that breaks the FK must
     abort at its end bracket and leave the state untouched. *)
  let bad =
    Transaction.make ~abort_if:(Constraints.guard all_constraints)
      [
        Statement.Insert
          ("emp", Expr.const (Relation.of_list s_emp [ emp 9 "ghosts" 10 ]));
      ]
  in
  (match Transaction.run company bad with
  | Transaction.Aborted { state; _ } ->
      Alcotest.(check bool) "rolled back" true (Database.equal_states company state)
  | Transaction.Committed _ -> Alcotest.fail "integrity violation must abort");
  (* A repairing transaction that goes through an inconsistent
     intermediate state but ends consistent must commit: checking is
     deferred to the bracket. *)
  let repair =
    Transaction.make ~abort_if:(Constraints.guard all_constraints)
      [
        Statement.Insert
          ("emp", Expr.const (Relation.of_list s_emp [ emp 9 "ghosts" 10 ]));
        Statement.Insert
          ("dept", Expr.const (Relation.of_list s_dept [ dept "ghosts" "rdam" ]));
      ]
  in
  match Transaction.run company repair with
  | Transaction.Committed { state; _ } ->
      Alcotest.(check bool) "final state consistent" true
        (Constraints.satisfied state all_constraints)
  | Transaction.Aborted { reason; _ } -> Alcotest.fail ("deferred check failed: " ^ reason)

let emp_r = Database.find "emp" company

(* --- ordered output ------------------------------------------------------------ *)

let test_sort () =
  let rows = Ordered.sort [ (3, Ordered.Desc); (1, Ordered.Asc) ] emp_r in
  Alcotest.(check int) "all rows" 3 (List.length rows);
  (match rows with
  | first :: _ ->
      Alcotest.(check bool) "highest salary first" true
        (Value.equal (Tuple.attr first 3) (Value.Int 120))
  | [] -> Alcotest.fail "empty sort");
  (* Duplicates expand. *)
  let dup = Relation.of_counted_list s_emp [ (emp 1 "toys" 10, 3) ] in
  Alcotest.(check int) "bag expansion" 3
    (List.length (Ordered.sort [ (1, Ordered.Asc) ] dup));
  Alcotest.(check bool) "out-of-range key rejected" true
    (match Ordered.sort [ (9, Ordered.Asc) ] emp_r with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_top_k_and_cursor () =
  let top = Ordered.top_k 2 [ (3, Ordered.Desc) ] emp_r in
  Alcotest.(check (list int)) "top-2 salaries" [ 120; 100 ]
    (List.map
       (fun t -> match Tuple.attr t 3 with Value.Int n -> n | _ -> -1)
       top);
  let c = Ordered.open_cursor [ (1, Ordered.Asc) ] emp_r in
  Alcotest.(check int) "position starts at 0" 0 (Ordered.position c);
  let batch = Ordered.fetch_many c 2 in
  Alcotest.(check int) "fetched 2" 2 (List.length batch);
  Alcotest.(check bool) "third row present" true (Ordered.fetch c <> None);
  Alcotest.(check bool) "exhausted" true (Ordered.fetch c = None);
  Ordered.rewind c;
  Alcotest.(check int) "rewound" 0 (Ordered.position c)

(* --- csv ------------------------------------------------------------------------ *)

let test_csv_roundtrip () =
  let tricky =
    Relation.of_counted_list s_emp
      [ (emp 1 "with,comma" 10, 2); (emp 2 "with \"quote\"\nand newline" 20, 1) ]
  in
  let back = W.Csv.decode (W.Csv.encode tricky) in
  Alcotest.(check bool) "round trip with quoting" true
    (Relation.equal tricky back)

let test_csv_typed_header () =
  let r = W.Csv.decode "a:int,b:float,c:bool\n1,2.5,true\n" in
  Alcotest.(check bool) "typed decode" true
    (Relation.mem
       (Tuple.of_list [ Value.Int 1; Value.Float 2.5; Value.Bool true ])
       r);
  Alcotest.(check bool) "bad value rejected" true
    (match W.Csv.decode "a:int\nxyz\n" with
    | _ -> false
    | exception W.Csv.Csv_error (_, 2) -> true);
  Alcotest.(check bool) "missing annotation rejected" true
    (match W.Csv.decode "a\n1\n" with
    | _ -> false
    | exception W.Csv.Csv_error (_, _) -> true)

let test_csv_inference () =
  let r = W.Csv.decode_untyped "x,y,z\n1,1.5,hello\n2,2,world\n" in
  let schema = Relation.schema r in
  Alcotest.(check bool) "int column" true
    (Domain.equal (Schema.domain schema 1) Domain.DInt);
  Alcotest.(check bool) "float column (mixed 1.5 and 2)" true
    (Domain.equal (Schema.domain schema 2) Domain.DFloat);
  Alcotest.(check bool) "string column" true
    (Domain.equal (Schema.domain schema 3) Domain.DStr);
  Alcotest.(check int) "rows" 2 (Relation.cardinal r)

let test_csv_files () =
  let path = Filename.temp_file "mxra" ".csv" in
  W.Csv.write_file path emp_r;
  let back = W.Csv.read_file path in
  Sys.remove path;
  Alcotest.(check bool) "file round trip" true (Relation.equal emp_r back)

(* --- retail workload --------------------------------------------------------- *)

let test_retail_generator () =
  let rng = W.Rng.make 7 in
  let db = W.Retail.generate ~rng ~customers:40 ~orders:200 () in
  (* Generated data satisfies its own declared constraints. *)
  List.iter
    (Constraints.validate (Typecheck.env_of_database db))
    W.Retail.constraints;
  Alcotest.(check bool) "constraints hold" true
    (Constraints.satisfied db W.Retail.constraints);
  (* The canonical queries type-check and the engine agrees with the
     reference on all of them. *)
  List.iter
    (fun q ->
      ignore (Typecheck.infer_db db q);
      Alcotest.(check bool) "engine = reference" true
        (Relation.equal (Eval.eval db q) (Mxra_engine.Exec.run_expr db q)))
    [ W.Retail.revenue_per_country; W.Retail.order_sizes;
      W.Retail.repeat_products ];
  (* Zipf skew: gold-product projection holds duplicates. *)
  let products = Eval.eval db W.Retail.repeat_products in
  Alcotest.(check bool) "duplicates present" true
    (Relation.cardinal products > Relation.support_size products)

let suite =
  ( "ext2",
    [
      Alcotest.test_case "constraint validation" `Quick test_constraints_validate;
      Alcotest.test_case "clean state satisfies" `Quick test_constraints_satisfied;
      Alcotest.test_case "keys under bag semantics" `Quick
        test_key_detects_duplicates_and_collisions;
      Alcotest.test_case "foreign keys" `Quick test_foreign_key;
      Alcotest.test_case "check and cardinality" `Quick test_check_and_cardinality;
      Alcotest.test_case "constraint-guarded transactions" `Quick
        test_constraint_guarded_transaction;
      Alcotest.test_case "sorting" `Quick test_sort;
      Alcotest.test_case "top-k and cursors" `Quick test_top_k_and_cursor;
      Alcotest.test_case "csv round trip" `Quick test_csv_roundtrip;
      Alcotest.test_case "csv typed header" `Quick test_csv_typed_header;
      Alcotest.test_case "csv inference" `Quick test_csv_inference;
      Alcotest.test_case "csv files" `Quick test_csv_files;
      Alcotest.test_case "retail workload" `Quick test_retail_generator;
    ] )
