(* The host-speed reference kernel and the normalisation built on it.

   On a shared virtual machine the speed of memory-heavy code drifts over
   seconds: the same binary and seed measured one statement at 305 and at
   346 ms in two processes.  Timed side by side on the 2-vCPU host this
   benchmark was tuned on, [revenue_per_country] ranged 436-758 ms within
   one minute while a pure-arithmetic loop moved by 10%; a sort of small
   heap blocks moved with the statement (correlation 0.77), and a walk of
   dependent loads over 16 MiB did not (-0.11).  The drift follows code
   that allocates and compares small heap blocks, as the engine does.

   The kernel below uses no library code of the repository, so no change
   to the engine can change its time.  It does what the engine does most:
   it sorts an array of small heap blocks by polymorphic comparison
   (pointer chasing over about half a MiB of the major heap) and builds and
   walks a short-lived persistent tree (allocation).  It is timed between
   operations, at most [cadence_ms] of operation time apart, and every
   timing is reported at a fixed nominal speed:
   [raw_ms *. nominal_ms /. adjacent_ref_ms]. *)

(* What one reading takes on the host the benchmark was tuned on; a
   normalised figure is "ms on a host where a reading takes this". *)
let nominal_ms = 5.0

(* Operation time between two readings, well under the drift's seconds. *)
let cadence_ms = 250.0

let blocks =
  Array.init 10_000 (fun i -> ((i * 7919) land 0xFFFF, [| i; i + 1 |]))

module M = Map.Make (Int)

let run_once () =
  let a = Array.copy blocks in
  Array.sort compare a;
  let m = ref M.empty in
  for i = 1 to 1_000 do
    let k = (i * 40503) land 0xFFFF in
    m := M.add k (i, [ k; i ]) !m
  done;
  M.fold (fun k (i, l) acc -> acc + k + i + List.length l) !m (fst a.(0))

let sink = ref 0

(* One reference reading: the median of three kernel runs, in ms. *)
let measure () =
  let time () =
    Gc.minor ();
    let t0 = Unix.gettimeofday () in
    sink := !sink + run_once ();
    (Unix.gettimeofday () -. t0) *. 1000.0
  in
  let a = time () in
  let b = time () in
  let c = time () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* Every reading of the run, for [host.ref_ms] and [host.drift]. *)
let readings : float list ref = ref []

let reading () =
  let r = measure () in
  readings := r :: !readings;
  r

(* The factor that brings a raw time measured between two readings to
   nominal speed. *)
let factor ~before ~after = nominal_ms *. 2.0 /. (before +. after)

let drift () =
  match !readings with
  | [] -> nan
  | r :: rs ->
      let lo, hi =
        List.fold_left
          (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
          (r, r) rs
      in
      hi /. lo
