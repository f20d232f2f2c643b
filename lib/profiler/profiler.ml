(* The hot function/loop profiler (paper Section 3.1).

   "The hot function/loop profiler measures execution time, invocation
   count, and memory usage of each function and loop in an application
   with a profiling input."

   The profiler attaches to a {!No_exec.Host} through its hooks:
   function enter/exit give inclusive times and invocation counts;
   block entries attributed to statically detected natural loops give
   loop times, invocations and iteration counts; a memory touch
   callback collects the unique pages each active task accesses —
   which is exactly the M of Equation 1 (what offloading would have to
   communicate). *)

module Ir = No_ir.Ir
module Host = No_exec.Host
module Memory = No_mem.Memory
module Region = No_mem.Region
module Loops = No_analysis.Loops
module String_set = Set.Make (String)

type kind = Func | Loop

type sample = {
  s_name : string;              (* function name or loop display name *)
  s_kind : kind;
  s_in_func : string;           (* enclosing function (self for Func) *)
  s_time : float;               (* inclusive seconds, summed *)
  s_invocations : int;
  s_iterations : int;           (* loops only *)
  s_mem_bytes : int;            (* max unique bytes touched per invocation *)
}

(* Mutable accumulator per profiled entity. *)
type acc = {
  a_name : string;
  a_kind : kind;
  a_in_func : string;
  mutable a_time : float;
  mutable a_invocations : int;
  mutable a_iterations : int;
  mutable a_mem_bytes : int;
}

type live_loop = {
  ll_loop : Loops.loop;
  ll_acc : acc;
  ll_start : float;
  ll_pages : (int, unit) Hashtbl.t;
}

(* Per-function state, resolved on the function's first call. *)
type func = {
  fn_acc : acc;
  fn_headers : (string, Loops.loop) Hashtbl.t;  (* header label -> loop *)
  mutable fn_active : int;      (* frames of this function on the stack *)
}

type frame = {
  fr_func : string;
  fr_fn : func;
  fr_start : float;
  fr_outermost : bool;          (* recursion: only outermost is timed *)
  fr_pages : (int, unit) Hashtbl.t;
  mutable fr_loops : live_loop list;  (* innermost first *)
}

type t = {
  host : Host.t;
  headers : (string, (string, Loops.loop) Hashtbl.t) Hashtbl.t;
      (* function -> header label -> loop, first loop per key wins *)
  funcs : (string, func) Hashtbl.t;
  accs : (string, acc) Hashtbl.t;       (* key: kind-qualified name *)
  mutable stack : frame list;
  mutable last_page : int;
      (* page last added to every open frame and loop; -1 after one
         opens, when the next touch must be recorded again *)
  saved_enter : string -> unit;         (* hooks in place before [attach] *)
  saved_exit : string -> unit;
  saved_block : string -> string -> unit;
  saved_touch : (int -> unit) option;
}

let key kind name =
  match kind with Func -> "f:" ^ name | Loop -> "l:" ^ name

let get_acc t kind name in_func =
  let k = key kind name in
  match Hashtbl.find_opt t.accs k with
  | Some acc -> acc
  | None ->
    let acc =
      { a_name = name; a_kind = kind; a_in_func = in_func; a_time = 0.0;
        a_invocations = 0; a_iterations = 0; a_mem_bytes = 0 }
    in
    Hashtbl.replace t.accs k acc;
    acc

let now t = t.host.Host.clock.Host.now

let close_loop t (ll : live_loop) =
  ll.ll_acc.a_time <- ll.ll_acc.a_time +. (now t -. ll.ll_start);
  ll.ll_acc.a_mem_bytes <-
    max ll.ll_acc.a_mem_bytes (Hashtbl.length ll.ll_pages * Region.page_size)

let no_headers : (string, Loops.loop) Hashtbl.t = Hashtbl.create 1

let func_state t fname =
  match Hashtbl.find_opt t.funcs fname with
  | Some fn -> fn
  | None ->
    let fn =
      { fn_acc = get_acc t Func fname fname;
        fn_headers =
          Option.value (Hashtbl.find_opt t.headers fname) ~default:no_headers;
        fn_active = 0 }
    in
    Hashtbl.replace t.funcs fname fn;
    fn

let on_enter t fname =
  let fn = func_state t fname in
  fn.fn_acc.a_invocations <- fn.fn_acc.a_invocations + 1;
  t.stack <-
    { fr_func = fname; fr_fn = fn; fr_start = now t;
      fr_outermost = fn.fn_active = 0; fr_pages = Hashtbl.create 64;
      fr_loops = [] }
    :: t.stack;
  fn.fn_active <- fn.fn_active + 1;
  t.last_page <- -1

let on_exit t fname =
  match t.stack with
  | fr :: rest when String.equal fr.fr_func fname ->
    List.iter (close_loop t) fr.fr_loops;
    let acc = fr.fr_fn.fn_acc in
    if fr.fr_outermost then begin
      acc.a_time <- acc.a_time +. (now t -. fr.fr_start);
      acc.a_mem_bytes <-
        max acc.a_mem_bytes (Hashtbl.length fr.fr_pages * Region.page_size)
    end;
    fr.fr_fn.fn_active <- fr.fr_fn.fn_active - 1;
    t.stack <- rest
  | _ ->
    (* Unbalanced exit: drop silently (a trap unwound the stack). *)
    ()

let on_block t fname label =
  match t.stack with
  | fr :: _ when String.equal fr.fr_func fname -> (
    (* Close loops whose body does not contain this block. *)
    let rec close_stale loops =
      match loops with
      | ll :: rest
        when not (Loops.String_set.mem label ll.ll_loop.Loops.l_blocks) ->
        close_loop t ll;
        close_stale rest
      | _ -> loops
    in
    fr.fr_loops <- close_stale fr.fr_loops;
    (* Entering a loop header: either a new invocation or an iteration. *)
    match Hashtbl.find_opt fr.fr_fn.fn_headers label with
    | None -> ()
    | Some loop -> (
      match fr.fr_loops with
      | ll :: _ when String.equal ll.ll_loop.Loops.l_header label ->
        ll.ll_acc.a_iterations <- ll.ll_acc.a_iterations + 1
      | _ ->
        let acc = get_acc t Loop loop.Loops.l_name fname in
        acc.a_invocations <- acc.a_invocations + 1;
        acc.a_iterations <- acc.a_iterations + 1;
        fr.fr_loops <-
          { ll_loop = loop; ll_acc = acc; ll_start = now t;
            ll_pages = Hashtbl.create 64 }
          :: fr.fr_loops;
        t.last_page <- -1))
  | _ -> ()

(* Every open frame and loop collects the page.  A repeat of the last
   page is skipped: every set still open already holds it. *)
let on_touch t page =
  if page <> t.last_page then begin
    t.last_page <- page;
    List.iter
      (fun fr ->
        Hashtbl.replace fr.fr_pages page ();
        List.iter (fun ll -> Hashtbl.replace ll.ll_pages page ()) fr.fr_loops)
      t.stack
  end

(* (function, header) -> loop, keeping the first loop per key as a
   front-to-back scan of [loops] would find it. *)
let header_table loops =
  let headers = Hashtbl.create 64 in
  List.iter
    (fun (l : Loops.loop) ->
      let by_label =
        match Hashtbl.find_opt headers l.Loops.l_func with
        | Some tbl -> tbl
        | None ->
          let tbl = Hashtbl.create 8 in
          Hashtbl.replace headers l.Loops.l_func tbl;
          tbl
      in
      if not (Hashtbl.mem by_label l.Loops.l_header) then
        Hashtbl.replace by_label l.Loops.l_header l)
    loops;
  headers

(* Attach a profiler to [host]; returns the handle to read results
   from after the profiled run. *)
let attach (host : Host.t) : t =
  let hooks = host.Host.hooks in
  let t =
    { host;
      headers = header_table (Loops.loops_of_module host.Host.modul);
      funcs = Hashtbl.create 64; accs = Hashtbl.create 64; stack = [];
      last_page = -1;
      saved_enter = hooks.Host.on_enter; saved_exit = hooks.Host.on_exit;
      saved_block = hooks.Host.on_block;
      saved_touch = host.Host.mem.Memory.on_touch }
  in
  hooks.Host.on_enter <- on_enter t;
  hooks.Host.on_exit <- on_exit t;
  hooks.Host.on_block <- on_block t;
  Memory.set_touch_callback host.Host.mem (Some (on_touch t));
  t

let detach t =
  let hooks = t.host.Host.hooks in
  hooks.Host.on_enter <- t.saved_enter;
  hooks.Host.on_exit <- t.saved_exit;
  hooks.Host.on_block <- t.saved_block;
  Memory.set_touch_callback t.host.Host.mem t.saved_touch

let results t : sample list =
  Hashtbl.fold
    (fun _ acc samples ->
      {
        s_name = acc.a_name;
        s_kind = acc.a_kind;
        s_in_func = acc.a_in_func;
        s_time = acc.a_time;
        s_invocations = acc.a_invocations;
        s_iterations = acc.a_iterations;
        s_mem_bytes = acc.a_mem_bytes;
      }
      :: samples)
    t.accs []
  |> List.sort (fun a b -> compare b.s_time a.s_time)

let find_sample samples ~kind ~name =
  List.find_opt
    (fun s -> s.s_kind = kind && String.equal s.s_name name)
    samples
