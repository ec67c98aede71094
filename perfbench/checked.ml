(* The answer checker: a front-door sink wrapped with a model of what the
   store must hold, and with the host/simulated timing of every call.

   The model keeps, per key, a digest of each value the store may hold.
   One client at a time makes that set a single value. Under several
   client coroutines a write can be applied before it is acknowledged
   (group commit parks the writer after the engine took the record), so
   while writes to a key are in flight — and after overlapping writes,
   until a read settles it — every value among them is acceptable.

   A wrong answer, or an exception out of the store (a [Degraded_*] among
   them), is one failure. Checking runs outside the timed interval of the
   call: its host time is the benchmark's, not the store's. *)

module Smap = Map.Make (String)

let absent = -1
let digest v = Hashtbl.hash v lxor (String.length v lsl 30)

type entry = {
  mutable acked : int list;  (** possible values with no write in flight *)
  mutable pending : int list;  (** digests of writes in flight *)
  mutable group : int list;  (** values of the current overlapping writes *)
}

(* Growable float buffer of latency samples, with exact percentiles. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let concat ts =
    let n = List.fold_left (fun a t -> a + t.n) 0 ts in
    let a = Array.make (max 1 n) 0.0 in
    ignore (List.fold_left (fun off t -> Array.blit t.a 0 a off t.n; off + t.n) 0 ts);
    { a; n }

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s

  let mean t = if t.n > 0 then sum t /. float_of_int t.n else 0.0

  (* Nearest-rank percentile, [p] in [0, 100]. *)
  let percentile t p =
    if t.n = 0 then 0.0
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort Float.compare s;
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)) in
      s.(max 0 (min (t.n - 1) (rank - 1)))
    end
end

type kind = Write | Read | Scan

let kind_name = function Write -> "put" | Read -> "get" | Scan -> "scan"

type t = {
  mutable model : entry Smap.t;
  ledger : Ledger.t;
  clock : Sim.Clock.t;
  sim_lat : Samples.t array;  (** per {!kind}, simulated ns per call *)
  calls : int array;  (** per {!kind} *)
  mutable attempted : int;
  mutable failed : int;
  mutable first_failure : string option;
  mutable drop_next_put : bool;  (** planted fault: lose one write *)
  tick : unit -> unit;  (** run before every call, off the books (Calibrate) *)
}

let kind_index = function Write -> 0 | Read -> 1 | Scan -> 2

let create ~ledger ~clock ~tick =
  {
    model = Smap.empty;
    ledger;
    clock;
    sim_lat = Array.init 3 (fun _ -> Samples.create ());
    calls = Array.make 3 0;
    attempted = 0;
    failed = 0;
    first_failure = None;
    drop_next_put = false;
    tick;
  }

(* Start counting calls and latencies afresh (the measured phase). *)
let reset_timing t =
  Array.fill t.calls 0 3 0;
  Array.iteri (fun i _ -> t.sim_lat.(i) <- Samples.create ()) t.sim_lat

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + 1;
      if t.first_failure = None then t.first_failure <- Some msg)
    fmt

let entry t key =
  match Smap.find_opt key t.model with
  | Some e -> e
  | None ->
      let e = { acked = [ absent ]; pending = []; group = [] } in
      t.model <- Smap.add key e t.model;
      e

let acceptable e = if e.pending = [] then e.acked else e.acked @ e.group

let begin_write t key d =
  let e = entry t key in
  e.group <- (if e.pending = [] then [ d ] else d :: e.group);
  e.pending <- d :: e.pending;
  e

let rec remove_one d = function
  | [] -> []
  | x :: rest -> if x = d then rest else x :: remove_one d rest

let end_write e d ~ok =
  e.pending <- remove_one d e.pending;
  (* a write that raised may or may not have landed *)
  if not ok then e.group <- e.group @ e.acked;
  if e.pending = [] then e.acked <- e.group

let check_get t key answer =
  let d = match answer with Some v -> digest v | None -> absent in
  match Smap.find_opt key t.model with
  | None -> if d <> absent then fail t "get %S: value for a key never written" key
  | Some e ->
      if List.mem d (acceptable e) then begin
        if e.pending = [] then e.acked <- [ d ]
      end
      else fail t "get %S: wrong answer" key

(* A scan answer must be ordered, stay inside its range, hold only
   acceptable values, and miss no key that is certainly live inside the
   range it covers: up to [stop], or — when a [limit] cut it short — up to
   its last key. *)
let check_scan t ~start ?stop ?limit got =
  let n = List.length got in
  let last = List.fold_left (fun _ (k, _) -> Some k) None got in
  let below_stop k = match stop with Some s -> String.compare k s < 0 | None -> true in
  let covered k =
    match (limit, last) with
    | Some l, Some lk when n >= l -> String.compare k lk <= 0
    | _ -> below_stop k
  in
  let ok = ref (match limit with Some l -> n <= l | None -> true) in
  let prev = ref None in
  List.iter
    (fun (k, v) ->
      (match !prev with Some p when String.compare p k >= 0 -> ok := false | _ -> ());
      prev := Some k;
      if String.compare k start < 0 || not (below_stop k) then ok := false;
      match Smap.find_opt k t.model with
      | Some e when List.mem (digest v) (acceptable e) -> ()
      | _ -> ok := false)
    got;
  let rest = ref got in
  let rec skip_below k =
    match !rest with
    | (gk, _) :: tl when String.compare gk k < 0 ->
        rest := tl;
        skip_below k
    | _ -> ()
  in
  let rec walk s =
    match s () with
    | Seq.Cons ((k, e), s') when covered k ->
        skip_below k;
        let here = match !rest with (gk, _) :: _ -> String.equal gk k | [] -> false in
        if (not here) && not (List.mem absent (acceptable e)) then ok := false;
        walk s'
    | _ -> ()
  in
  walk (Smap.to_seq_from start t.model);
  if not !ok then fail t "scan from %S: wrong answer (%d pairs)" start n

type client = { mutable step : Ledger.acc; mutable req : int }

let new_client () = { step = Ledger.new_acc (); req = -1 }

(* One timed front-door call: a root span on the ledger, the simulated
   clock read on both sides, and the answer handed back for checking. *)
let timed t client kind f =
  t.tick ();
  let i = kind_index kind in
  t.calls.(i) <- t.calls.(i) + 1;
  t.attempted <- t.attempted + 1;
  let sim0 = Sim.Clock.now t.clock in
  let span =
    Ledger.open_span t.ledger ~name:(kind_name kind) ~sim:sim0 ~step:client.step
      ~req:client.req ()
  in
  let result = try Ok (f ()) with e -> Error e in
  let sim1 = Sim.Clock.now t.clock in
  Ledger.close_span t.ledger span ~sim:sim1;
  Samples.add t.sim_lat.(i) (sim1 -. sim0);
  result

let sink t client (inner : Workload.Sink.t) : Workload.Sink.t =
  let write key d apply =
    let e = begin_write t key d in
    let dropped = t.drop_next_put in
    t.drop_next_put <- false;
    let ok =
      match timed t client Write (fun () -> if not dropped then apply ()) with
      | Ok () -> true
      | Error exn ->
          fail t "write %S raised %s" key (Printexc.to_string exn);
          false
    in
    end_write e d ~ok
  in
  let read_answer what key = function
    | Ok v -> Some v
    | Error exn ->
        fail t "%s %S raised %s" what key (Printexc.to_string exn);
        None
  in
  {
    Workload.Sink.put =
      (fun ~update ~key value ->
        write key (digest value) (fun () -> inner.put ~update ~key value));
    delete = (fun key -> write key absent (fun () -> inner.delete key));
    get =
      (fun key ->
        match read_answer "get" key (timed t client Read (fun () -> inner.get key)) with
        | Some answer ->
            check_get t key answer;
            answer
        | None -> None);
    scan =
      (fun ~start ~limit ->
        match
          read_answer "scan" start
            (timed t client Scan (fun () -> inner.scan ~start ~limit))
        with
        | Some got ->
            check_scan t ~start ~limit got;
            got
        | None -> []);
    scan_range =
      (fun ~start ~stop ->
        match
          read_answer "scan_range" start
            (timed t client Scan (fun () -> inner.scan_range ~start ~stop))
        with
        | Some got ->
            check_scan t ~start ~stop got;
            got
        | None -> []);
  }

(* Read every model key back through [get] (untimed, after the measured
   phase or after recovery); returns how many keys failed. *)
let read_back t get =
  let before = t.failed in
  Smap.iter
    (fun key e ->
      t.attempted <- t.attempted + 1;
      match get key with
      | answer ->
          let d = match answer with Some v -> digest v | None -> absent in
          if List.mem d (acceptable e) then ()
          else fail t "read-back %S: wrong answer" key
      | exception exn -> fail t "read-back %S raised %s" key (Printexc.to_string exn))
    t.model;
  t.failed - before
