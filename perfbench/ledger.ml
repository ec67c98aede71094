(* Host-side accounting, measured from outside the store.

   Every boundary — a front-door call starting or ending, and in the
   traced run an engine span ([flush], [internal_compaction], ...)
   starting or ending — closes a segment of host time and minor-heap
   words. The segment is charged to the innermost open span, which makes
   it that span's self time, and to the workload step the span belongs
   to. Time with no span open is the benchmark's own work (generators,
   answer checking, the coroutine scheduler between calls).

   With several client coroutines on one thread, a call can suspend while
   another client runs; the segments between are charged to whichever
   span is innermost, so per-call figures blur between concurrent calls
   while the totals stay exact.

   Accumulators are all-float records, stored flat, so charging a segment
   allocates nothing that the next segment would count. *)

type acc = { mutable ns : float; mutable words : float }

type stamps = { mutable host_start : float; mutable host_end : float; mutable sim_end : float }

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  req : int;  (** workload step that opened the root span *)
  step : acc;
  self : acc;
  sim_start : float;
  stamps : stamps;
}

type totals = { mutable count : int; sum : acc }

type t = {
  mark : acc;
  mutable stack : span list;
  mutable next_id : int;
  totals : (string, totals) Hashtbl.t;
  mutable keep : bool;
  mutable finished : span list;
}

let now_ns () = Int64.to_float (Monotonic_clock.now ())
let new_acc () = { ns = 0.0; words = 0.0 }

let create () =
  {
    mark = { ns = now_ns (); words = Gc.minor_words () };
    stack = [];
    next_id = 0;
    totals = Hashtbl.create 16;
    keep = false;
    finished = [];
  }

(* Forget everything measured so far; the next segment starts now. [keep]
   retains finished spans for the trace file. *)
let reset ?(keep = false) t =
  t.stack <- [];
  Hashtbl.reset t.totals;
  t.keep <- keep;
  t.finished <- [];
  t.mark.ns <- now_ns ();
  t.mark.words <- Gc.minor_words ()

let add a ~ns ~words =
  a.ns <- a.ns +. ns;
  a.words <- a.words +. words

let boundary t =
  let ns = now_ns () and words = Gc.minor_words () in
  let dns = ns -. t.mark.ns and dwords = words -. t.mark.words in
  t.mark.ns <- ns;
  t.mark.words <- words;
  match t.stack with
  | [] -> ()
  | s :: _ ->
      add s.self ~ns:dns ~words:dwords;
      add s.step ~ns:dns ~words:dwords

(* Start the next segment now: whatever ran since the last boundary is
   charged to no span (a calibration slice, off the books). *)
let restart t =
  t.mark.ns <- now_ns ();
  t.mark.words <- Gc.minor_words ()

(* Open a span under the innermost open one; a front-door call passes its
   own [step] and [req] and becomes a root. *)
let open_span t ~name ~sim ?step ?(req = -1) () =
  let parent, step, req =
    match (t.stack, step) with
    | _, Some step -> (-1, step, req)
    | p :: _, None -> (p.id, p.step, p.req)
    | [], None -> (-1, new_acc (), req)
  in
  let s =
    {
      id = t.next_id;
      parent;
      name;
      req;
      step;
      self = new_acc ();
      sim_start = sim;
      stamps = { host_start = 0.0; host_end = 0.0; sim_end = sim };
    }
  in
  t.next_id <- t.next_id + 1;
  boundary t;
  if t.keep then s.stamps.host_start <- t.mark.ns;
  t.stack <- s :: t.stack;
  s

let totals t name =
  match Hashtbl.find_opt t.totals name with
  | Some x -> x
  | None -> { count = 0; sum = new_acc () }

let retire t s ~sim =
  let x =
    match Hashtbl.find_opt t.totals s.name with
    | Some x -> x
    | None ->
        let x = { count = 0; sum = new_acc () } in
        Hashtbl.replace t.totals s.name x;
        x
  in
  x.count <- x.count + 1;
  add x.sum ~ns:s.self.ns ~words:s.self.words;
  if t.keep then begin
    s.stamps.sim_end <- sim;
    s.stamps.host_end <- t.mark.ns;
    t.finished <- s :: t.finished
  end

(* Close [s], wherever it sits in the stack (a suspended coroutine's call
   can end under another client's). *)
let close_span t s ~sim =
  boundary t;
  t.stack <- List.filter (fun o -> o != s) t.stack;
  retire t s ~sim

(* Close the innermost open span named [name] (engine spans end by name). *)
let close_named t name ~sim =
  match List.find_opt (fun o -> String.equal o.name name) t.stack with
  | Some s -> close_span t s ~sim
  | None -> boundary t

(* The trace sink of the traced run: engine Begin/End events become child
   spans of the enclosing front-door call, stamped with host time and
   minor words at the boundary. Other events are dropped (the I/O category
   is off). *)
let trace_sink t =
  Obs.Trace.make_sink
    ~emit:(function
      | Obs.Trace.Begin { name; ts; _ } -> ignore (open_span t ~name ~sim:ts ())
      | Obs.Trace.End { name; ts; _ } -> close_named t name ~sim:ts
      | _ -> ())
    ~close:(fun () -> ())
    ()

let write_spans t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"req\":%d,\"sim_start_ns\":%.1f,\"sim_end_ns\":%.1f,\"host_start_ns\":%.0f,\"host_end_ns\":%.0f,\"self_host_ns\":%.0f,\"self_words\":%.0f}\n"
        s.id s.parent s.name s.req s.sim_start s.stamps.sim_end s.stamps.host_start
        s.stamps.host_end s.self.ns s.self.words)
    (List.rev t.finished);
  close_out oc
