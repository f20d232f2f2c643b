(* Outside-in per-layer cost ledger.

   The benchmark times each call it makes into a layer with a
   monotonic clock and [Gc.quick_stat] deltas.  Inside those calls the
   program's own [Selfprof] zones (switched on for the traced run
   only) split off the zone-instrumented inner loops: a zone's
   self time moves from the enclosing call's row to the zone's row, so
   no second is counted twice.  Zones with no row of their own stay in
   the enclosing call's self time.  Whatever the rows do not cover —
   the benchmark's glue between calls — is the [unattributed_s]
   remainder, so the rows plus the remainder add up to the wall time
   of the traced repetitions.

   Zone times are process CPU seconds ([Sys.time], as [Selfprof]
   keeps them); call times are monotonic wall seconds.  On a
   single-threaded process the two differ only by time the OS gives
   to other processes. *)

open No_prelude.Prelude

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type row = {
  name : string;
  mutable self_s : float;
  mutable calls : int;
  mutable minor_w : float;
  mutable promoted_w : float;  (** call rows only: zones do not split it *)
  mutable major : int;  (** call rows only *)
}

(* Rows filled by [time] around a call into a layer. *)
let call_rows =
  [
    "ir.validate_s";
    "profiler.profile_s";
    "analysis.filter_s";
    "estimator.select_s";
    "transform.pipeline_s";
    "exec.local_s";
    "runtime.create_s";
    "runtime.run_s";
    "sched.sim_run_s";
    "obs.slo_eval_s";
  ]

(* Rows filled from the [Selfprof] zone of the same layer. *)
let row_of_zone = function
  | "page-fault" -> Some "mem.page_fault_s"
  | "compress" -> Some "netsim.compress_s"
  | "eq-push" | "eq-pop" -> Some "sched.eq_s"
  | "pool-route" -> Some "sched.pool_route_s"
  | "sink-emit" -> Some "trace.sink_emit_s"
  | "hist-record" -> Some "obs.hist_record_s"
  | "checkpoint" -> Some "migrate.checkpoint_s"
  | _ -> None

let zone_rows =
  [
    "mem.page_fault_s";
    "netsim.compress_s";
    "sched.eq_s";
    "sched.pool_route_s";
    "trace.sink_emit_s";
    "obs.hist_record_s";
    "migrate.checkpoint_s";
  ]

type t = {
  rows : row list;  (** report order: call rows, then zone rows *)
  zone_target : row option array;  (** by index in [Selfprof.rows ()] *)
  mutable wall_s : float;  (** summed wall of the traced repetitions *)
  mutable reps : int;
}

let find_row rows name = List.find (fun r -> String.equal r.name name) rows

let create () =
  let rows =
    List.map
      (fun name ->
        { name; self_s = 0.0; calls = 0; minor_w = 0.0; promoted_w = 0.0;
          major = 0 })
      (call_rows @ zone_rows)
  in
  let zone_target =
    Array.of_list
      (List.map
         (fun z -> Option.map (find_row rows) (row_of_zone z.Selfprof.r_zone))
         (Selfprof.rows ()))
  in
  Selfprof.reset ();
  { rows; zone_target; wall_s = 0.0; reps = 0 }

let zone_snapshot () = Array.of_list (Selfprof.rows ())

(* Run [f] as one call into the layer of row [name]. *)
let time t name f =
  let row = find_row t.rows name in
  let z0 = zone_snapshot () in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let result = f () in
  let dt = now () -. t0 in
  let g1 = Gc.quick_stat () in
  let z1 = zone_snapshot () in
  let zone_s = ref 0.0 and zone_w = ref 0.0 in
  Array.iteri
    (fun i target ->
      match target with
      | None -> ()
      | Some zr ->
        let a = z0.(i) and b = z1.(i) in
        let ds = b.Selfprof.r_self_s -. a.Selfprof.r_self_s in
        let dw = b.Selfprof.r_self_words -. a.Selfprof.r_self_words in
        zr.self_s <- zr.self_s +. ds;
        zr.calls <- zr.calls + (b.Selfprof.r_calls - a.Selfprof.r_calls);
        zr.minor_w <- zr.minor_w +. dw;
        zone_s := !zone_s +. ds;
        zone_w := !zone_w +. dw)
    t.zone_target;
  row.self_s <- row.self_s +. dt -. !zone_s;
  row.calls <- row.calls + 1;
  row.minor_w <- row.minor_w +. (g1.Gc.minor_words -. g0.Gc.minor_words)
                 -. !zone_w;
  row.promoted_w <-
    row.promoted_w +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  row.major <- row.major + (g1.Gc.major_collections - g0.Gc.major_collections);
  result

(* [time] when tracing, a plain call otherwise. *)
let call ledger name f =
  match ledger with None -> f () | Some t -> time t name f

let add_rep t ~wall_s =
  t.wall_s <- t.wall_s +. wall_s;
  t.reps <- t.reps + 1

(* {1 Per-repetition view} *)

let per_rep t x = x /. float_of_int (max 1 t.reps)
let wall t = per_rep t t.wall_s
let self_s t name = per_rep t (find_row t.rows name).self_s
let calls t name = per_rep t (float_of_int (find_row t.rows name).calls)
let attributed t = List.fold_left (fun acc r -> acc +. r.self_s) 0.0 t.rows
let unattributed t = per_rep t (t.wall_s -. attributed t)

let gc_totals t =
  List.fold_left
    (fun (mi, pr, ma) r ->
      (mi +. r.minor_w, pr +. r.promoted_w, ma + r.major))
    (0.0, 0.0, 0) t.rows

(* The ledger's own invariant, on the per-repetition figures it
   reports: the rows plus the remainder equal the wall, and neither a
   row nor the remainder is negative (beyond the clocks' resolution,
   since zone CPU time is subtracted from call wall time). *)
let check t =
  let w = wall t in
  let tol = 1e-3 *. Float.max 1e-3 w in
  let rows = List.map (fun r -> self_s t r.name) t.rows in
  let sum = List.fold_left ( +. ) (unattributed t) rows in
  t.reps > 0
  && Float.abs (sum -. w) <= 1e-9 *. Float.max 1.0 w
  && List.for_all (fun s -> s >= -.tol) rows
  && unattributed t >= -.tol

let render t =
  let b = Buffer.create 2048 in
  let wall = wall t in
  let share s = if wall > 0.0 then 100.0 *. s /. wall else 0.0 in
  Printf.bprintf b
    "per-layer ledger (traced run, per repetition, %d repetition(s), wall \
     %.6f s)\n"
    t.reps wall;
  Printf.bprintf b "  %-22s %12s %10s %13s %13s %7s %7s\n" "row" "self_s"
    "calls" "minor_words" "promoted_w" "majors" "share%";
  List.iter
    (fun r ->
      let zone = List.mem r.name zone_rows in
      Printf.bprintf b "  %-22s %12.6f %10.1f %13.0f %13s %7s %6.2f%%\n"
        r.name (per_rep t r.self_s)
        (per_rep t (float_of_int r.calls))
        (per_rep t r.minor_w)
        (if zone then "-" else Printf.sprintf "%.0f" (per_rep t r.promoted_w))
        (if zone then "-"
         else Printf.sprintf "%.2f" (per_rep t (float_of_int r.major)))
        (share (per_rep t r.self_s)))
    t.rows;
  let u = unattributed t in
  Printf.bprintf b "  %-22s %12.6f %10s %13s %13s %7s %6.2f%%\n"
    "unattributed_s" u "" "" "" "" (share u);
  Printf.bprintf b "  %-22s %12.6f %10s %13s %13s %7s %6.2f%%\n" "(wall)" wall
    "" "" "" "" 100.0;
  Buffer.contents b

let to_json t =
  let wall = wall t in
  let row r =
    Printf.sprintf
      "{\"row\": %S, \"self_s\": %.9g, \"calls\": %.9g, \"minor_words\": \
       %.9g, \"promoted_words\": %.9g, \"major_collections\": %.9g, \
       \"share\": %.9g}"
      r.name (per_rep t r.self_s)
      (per_rep t (float_of_int r.calls))
      (per_rep t r.minor_w) (per_rep t r.promoted_w)
      (per_rep t (float_of_int r.major))
      (if wall > 0.0 then per_rep t r.self_s /. wall else 0.0)
  in
  Printf.sprintf
    "{\"repetitions\": %d, \"wall_s\": %.9g, \"unattributed_s\": %.9g, \
     \"rows\": [%s]}"
    t.reps wall (unattributed t)
    (String.concat ", " (List.map row t.rows))
