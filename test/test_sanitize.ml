(* Sanitizer tests: the pmsan shadow state machine on synthetic event
   sequences, planted persistence bugs caught through the real device and
   builder (kill switches), schedsan's happens-before checker on planted
   scheduler races and lost wakeups, and the zero-findings bar on the
   unmodified engine. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let has_substring s ~sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---------- pmsan unit level: one checker, hand-fed events ---------- *)

let fresh () = Sanitize.Pmsan.create ()

let test_clean_protocol () =
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:1 ~len:4096;
  Sanitize.Pmsan.on_write san ~id:1 ~off:0 ~len:200;
  Sanitize.Pmsan.on_flush san ~id:1 ~off:0 ~len:200;
  Sanitize.Pmsan.on_drain san;
  Sanitize.Pmsan.on_commit_point san "wal.sync";
  Sanitize.Pmsan.on_read san ~id:1 ~off:0 ~len:200;
  check Alcotest.int "no errors" 0 (Sanitize.Pmsan.error_count san);
  check Alcotest.int "no redundant flushes" 0 (Sanitize.Pmsan.redundant_flushes san);
  check Alcotest.int "commit point counted" 1 (Sanitize.Pmsan.commit_points san)

let test_missing_flush_at_commit () =
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:1 ~len:4096;
  Sanitize.Pmsan.on_write san ~id:1 ~off:128 ~len:64;
  Sanitize.Pmsan.on_commit_point san "pmtable.seal";
  check Alcotest.int "one error" 1 (Sanitize.Pmsan.error_count san);
  check Alcotest.int "missing flush" 1 (Sanitize.Pmsan.missing_flush_at_commit san);
  match Sanitize.Pmsan.findings san with
  | [ f ] ->
      check Alcotest.string "kind" "missing-flush-at-commit"
        (Sanitize.Pmsan.kind_name f.Sanitize.Pmsan.kind);
      check Alcotest.bool "names the commit point" true
        (has_substring f.Sanitize.Pmsan.detail ~sub:"pmtable.seal")
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_flushed_but_unfenced_at_commit () =
  (* flush without the closing fence is still unpersisted at a barrier *)
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:1 ~len:4096;
  Sanitize.Pmsan.on_write san ~id:1 ~off:0 ~len:64;
  Sanitize.Pmsan.on_flush san ~id:1 ~off:0 ~len:64;
  Sanitize.Pmsan.on_commit_point san "wal.sync";
  check Alcotest.int "unfenced line is an error" 1
    (Sanitize.Pmsan.missing_flush_at_commit san)

let test_fence_without_flush () =
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:1 ~len:4096;
  Sanitize.Pmsan.on_write san ~id:1 ~off:0 ~len:64;
  Sanitize.Pmsan.on_flush san ~id:1 ~off:0 ~len:64;
  Sanitize.Pmsan.on_drain san;
  (* second drain with no flush in between: ordering without write-back *)
  Sanitize.Pmsan.on_drain san;
  check Alcotest.int "fence without flush" 1
    (Sanitize.Pmsan.fence_without_flush san)

let test_read_of_unpersisted () =
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:1 ~len:4096;
  Sanitize.Pmsan.on_write san ~id:1 ~off:0 ~len:64;
  (* the failing commit point marks the line stale... *)
  Sanitize.Pmsan.on_commit_point san "manifest.install";
  (* ...and a later read of it is flagged *)
  Sanitize.Pmsan.on_read san ~id:1 ~off:0 ~len:8;
  check Alcotest.int "read of unpersisted" 1
    (Sanitize.Pmsan.read_of_unpersisted san);
  check Alcotest.int "two errors total" 2 (Sanitize.Pmsan.error_count san)

let test_redundant_flush_kinds () =
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:1 ~len:4096;
  (* clean-line flush *)
  Sanitize.Pmsan.on_flush san ~id:1 ~off:0 ~len:64;
  check Alcotest.int "clean-line flush is redundant" 1
    (Sanitize.Pmsan.redundant_flushes san);
  (* double flush of the same dirty line within one fence epoch *)
  Sanitize.Pmsan.on_write san ~id:1 ~off:64 ~len:64;
  Sanitize.Pmsan.on_flush san ~id:1 ~off:64 ~len:64;
  Sanitize.Pmsan.on_flush san ~id:1 ~off:64 ~len:64;
  check Alcotest.int "same-epoch double flush is redundant" 2
    (Sanitize.Pmsan.redundant_flushes san);
  (* rewrite of a flushed-but-unfenced line: the first clwb bought nothing *)
  Sanitize.Pmsan.on_write san ~id:1 ~off:128 ~len:64;
  Sanitize.Pmsan.on_flush san ~id:1 ~off:128 ~len:64;
  Sanitize.Pmsan.on_write san ~id:1 ~off:128 ~len:64;
  check Alcotest.int "write-after-flush-before-fence is redundant" 3
    (Sanitize.Pmsan.redundant_flushes san);
  (* redundancy is a performance signal, not a correctness error *)
  check Alcotest.int "not an error" 0 (Sanitize.Pmsan.error_count san);
  check Alcotest.bool "per-site table populated" true
    (Sanitize.Pmsan.redundant_by_site san <> [])

let test_fence_resets_epoch () =
  (* re-flushing the same line is fine across a fence: new epoch *)
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:1 ~len:4096;
  Sanitize.Pmsan.on_write san ~id:1 ~off:0 ~len:64;
  Sanitize.Pmsan.on_flush san ~id:1 ~off:0 ~len:64;
  Sanitize.Pmsan.on_drain san;
  Sanitize.Pmsan.on_write san ~id:1 ~off:0 ~len:64;
  Sanitize.Pmsan.on_flush san ~id:1 ~off:0 ~len:64;
  Sanitize.Pmsan.on_drain san;
  check Alcotest.int "no redundancy across epochs" 0
    (Sanitize.Pmsan.redundant_flushes san)

let test_crash_clears_outstanding () =
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:1 ~len:4096;
  Sanitize.Pmsan.on_write san ~id:1 ~off:0 ~len:64;
  Sanitize.Pmsan.on_crash san;
  (* the device reverted: the dirty line no longer exists, so the next
     commit point is clean *)
  Sanitize.Pmsan.on_commit_point san "wal.sync";
  check Alcotest.int "no error after crash reset" 0
    (Sanitize.Pmsan.error_count san)

let test_free_forgets_region () =
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:7 ~len:4096;
  Sanitize.Pmsan.on_write san ~id:7 ~off:0 ~len:64;
  Sanitize.Pmsan.on_free san ~id:7;
  Sanitize.Pmsan.on_commit_point san "wal.sync";
  check Alcotest.int "freed dirty lines don't fire" 0
    (Sanitize.Pmsan.error_count san)

(* ---------- pmsan against its per-line-list predecessor ---------- *)

(* The checker as it was before the epoch kept flushed line ranges instead
   of one (shadow, line) pair per line, kept verbatim as the reference the
   range version must match event for event. *)
module Reference = struct
  [@@@warning "-32"]

  open Sanitize

  (* pmsan: shadow-memory persistence-ordering checker.

     The persistence domain of real PM hardware is the 64-byte cache line:
     a store is durable only once its line has been written back (clwb) and
     the write-back drained by a fence (sfence). pmsan shadows every PM
     region with one byte per line and advances a small state machine on
     the device events the [Pmem] shim forwards:

       Clean --write--> Dirty --flush--> Flushed --drain--> Clean

     Violations it reports:
       - missing-flush-at-commit: a commit point (WAL sync, PM-table seal,
         manifest install) executed while some line was still Dirty or
         Flushed-but-unfenced; those bytes would not survive a crash at the
         commit point even though the engine just promised durability.
       - fence-without-flush: a drain issued with no flush since the last
         drain — ordering without write-back persists nothing.
       - read-of-unpersisted: a read touching a line that was unfenced at
         an earlier commit point (marked stale there); recovery-path code
         consuming such bytes depends on unpersisted state.
       - redundant flush (performance, counted per call site): flushing a
         line that is already clean, re-flushing a line already flushed in
         the current fence epoch, or re-writing a flushed-but-unfenced line
         (no fence has banked the first write-back, so that clwb bought
         nothing — the classic chunked-writer tail-line waste). Free
         hot-path wins when eliminated.

     Cost model: the hot path (write/flush) is O(lines touched); commit
     points and reads are O(1) when nothing is outstanding, via an
     incrementally-maintained count of unfenced lines. Only a failing
     commit point scans shadows (to mark stale lines and name regions). *)

  let line_bytes = 64
  let max_findings = 64

  type kind =
    | Missing_flush_at_commit
    | Fence_without_flush
    | Read_of_unpersisted

  type finding = { kind : kind; region_id : int; site : string; detail : string }

  (* Shadow byte layout (one byte per 64 B line):
     bits 0-1  state: 0 = clean/fenced, 1 = dirty, 2 = flushed-unfenced
     bit  2    flushed during the current fence epoch (redundancy tracking)
     bit  3    stale: line was unfenced at some past commit point; reading
               it afterwards is a read-of-unpersisted. *)
  let st_mask = 0x03
  let st_dirty = 0x01
  let st_flushed = 0x02
  let b_epoch = 0x04
  let b_stale = 0x08

  type shadow = {
    sid : int;
    nlines : int;
    state : Bytes.t;
    mutable s_unfenced : int;  (* lines with state <> clean *)
    mutable dead : bool;       (* freed; kept reachable via the epoch list *)
  }

  type t = {
    regions : (int, shadow) Hashtbl.t;
    mutable epoch_lines : (shadow * int) list;
        (* lines flushed since the last drain; drained in O(flushes) *)
    mutable epoch_flush_calls : int;
    mutable unfenced_total : int;
    (* counters *)
    mutable commit_points : int;
    mutable missing_flush_at_commit : int;  (* commit points with unfenced lines *)
    mutable unfenced_lines_at_commit : int; (* total lines caught that way *)
    mutable fence_without_flush : int;
    mutable read_of_unpersisted : int;
    mutable redundant_flush : int;          (* line granularity *)
    redundant_sites : (string, int ref) Hashtbl.t;
    mutable findings : finding list;        (* newest first, capped *)
    mutable dropped_findings : int;
  }

  let create () =
    {
      regions = Hashtbl.create 64;
      epoch_lines = [];
      epoch_flush_calls = 0;
      unfenced_total = 0;
      commit_points = 0;
      missing_flush_at_commit = 0;
      unfenced_lines_at_commit = 0;
      fence_without_flush = 0;
      read_of_unpersisted = 0;
      redundant_flush = 0;
      redundant_sites = Hashtbl.create 16;
      findings = [];
      dropped_findings = 0;
    }

  let kind_name = function
    | Missing_flush_at_commit -> "missing-flush-at-commit"
    | Fence_without_flush -> "fence-without-flush"
    | Read_of_unpersisted -> "read-of-unpersisted"

  let finding_to_string f =
    Printf.sprintf "pmsan:%s region=%d at %s: %s" (kind_name f.kind) f.region_id
      f.site f.detail

  let report t kind ~region_id ~detail =
    let site = Site.capture () in
    (match kind with
    | Missing_flush_at_commit -> t.missing_flush_at_commit <- t.missing_flush_at_commit + 1
    | Fence_without_flush -> t.fence_without_flush <- t.fence_without_flush + 1
    | Read_of_unpersisted -> t.read_of_unpersisted <- t.read_of_unpersisted + 1);
    let f = { kind; region_id; site; detail } in
    if List.length t.findings < max_findings then t.findings <- f :: t.findings
    else t.dropped_findings <- t.dropped_findings + 1;
    Obs.Trace.instant "sanitize.pmsan" ~attrs:(fun () ->
        [ ("kind", Obs.Trace.Str (kind_name kind)); ("site", Obs.Trace.Str site);
          ("region", Obs.Trace.Int region_id); ("detail", Obs.Trace.Str detail) ])

  let nlines_of len = (len + line_bytes - 1) / line_bytes

  let on_alloc t ~id ~len =
    Hashtbl.replace t.regions id
      { sid = id; nlines = nlines_of len; state = Bytes.make (max 1 (nlines_of len)) '\000';
        s_unfenced = 0; dead = false }

  let on_free t ~id =
    match Hashtbl.find_opt t.regions id with
    | None -> ()
    | Some sh ->
        (* Outstanding lines of a freed region can no longer break a commit
           point; its shadow stays reachable from the epoch list but is
           marked dead so the drain walk skips the global accounting. *)
        t.unfenced_total <- t.unfenced_total - sh.s_unfenced;
        sh.s_unfenced <- 0;
        sh.dead <- true;
        Hashtbl.remove t.regions id

  let line_range ~off ~len nlines =
    if len <= 0 then (1, 0)
    else (off / line_bytes, min ((off + len - 1) / line_bytes) (nlines - 1))

  let bump_site t site =
    match Hashtbl.find_opt t.redundant_sites site with
    | Some r -> incr r
    | None -> Hashtbl.add t.redundant_sites site (ref 1)

  let on_write t ~id ~off ~len =
    match Hashtbl.find_opt t.regions id with
    | None -> ()
    | Some sh ->
        let lo, hi = line_range ~off ~len sh.nlines in
        let site = lazy (Site.capture ()) in
        for l = lo to hi do
          let b = Char.code (Bytes.get sh.state l) in
          if b land st_mask = 0 then begin
            sh.s_unfenced <- sh.s_unfenced + 1;
            t.unfenced_total <- t.unfenced_total + 1
          end;
          (* re-dirtying a flushed-but-unfenced line proves the earlier clwb
             was wasted work: no fence banked it, and the rewrite forces
             another write-back anyway (chunked writers flushing a partial
             tail line hit exactly this). The flushed-this-epoch credit is
             revoked too — the next flush of the new bytes is not redundant *)
          if b land st_mask = st_flushed then begin
            t.redundant_flush <- t.redundant_flush + 1;
            bump_site t (Lazy.force site)
          end;
          let b' = b land lnot (st_mask lor b_stale lor b_epoch) lor st_dirty in
          Bytes.set sh.state l (Char.chr b')
        done

  let on_flush t ~id ~off ~len =
    t.epoch_flush_calls <- t.epoch_flush_calls + 1;
    match Hashtbl.find_opt t.regions id with
    | None -> ()
    | Some sh ->
        let lo, hi = line_range ~off ~len sh.nlines in
        let site = lazy (Site.capture ()) in
        for l = lo to hi do
          let b = Char.code (Bytes.get sh.state l) in
          let redundant = b land b_epoch <> 0 || b land st_mask = 0 in
          if redundant then begin
            t.redundant_flush <- t.redundant_flush + 1;
            bump_site t (Lazy.force site)
          end;
          let b = if b land b_epoch = 0 then begin
              t.epoch_lines <- (sh, l) :: t.epoch_lines;
              b lor b_epoch
            end else b
          in
          let b = if b land st_mask = st_dirty then b land lnot st_mask lor st_flushed else b in
          Bytes.set sh.state l (Char.chr b)
        done

  let on_drain t =
    if t.epoch_flush_calls = 0 then
      report t Fence_without_flush ~region_id:(-1)
        ~detail:"drain issued with no flush since the previous drain";
    List.iter
      (fun (sh, l) ->
        let b = Char.code (Bytes.get sh.state l) in
        let b = b land lnot b_epoch in
        let b =
          if b land st_mask = st_flushed then begin
            if not sh.dead then begin
              sh.s_unfenced <- sh.s_unfenced - 1;
              t.unfenced_total <- t.unfenced_total - 1
            end;
            b land lnot (st_mask lor b_stale)
          end
          else b
        in
        Bytes.set sh.state l (Char.chr b))
      t.epoch_lines;
    t.epoch_lines <- [];
    t.epoch_flush_calls <- 0

  let on_commit_point t name =
    t.commit_points <- t.commit_points + 1;
    if t.unfenced_total > 0 then begin
      t.unfenced_lines_at_commit <- t.unfenced_lines_at_commit + t.unfenced_total;
      (* Failure path only: scan shadows to name regions and mark the
         offending lines stale so later reads of them are flagged too. *)
      Hashtbl.iter
        (fun id sh ->
          if sh.s_unfenced > 0 then begin
            let dirty = ref 0 and flushed = ref 0 in
            for l = 0 to sh.nlines - 1 do
              let b = Char.code (Bytes.get sh.state l) in
              if b land st_mask <> 0 then begin
                if b land st_mask = st_dirty then incr dirty else incr flushed;
                Bytes.set sh.state l (Char.chr (b lor b_stale))
              end
            done;
            report t Missing_flush_at_commit ~region_id:id
              ~detail:
                (Printf.sprintf
                   "%d unfenced line(s) (%d dirty, %d flushed-unfenced) at commit point '%s'"
                   (!dirty + !flushed) !dirty !flushed name)
          end)
        t.regions
    end

  let on_read t ~id ~off ~len =
    if t.unfenced_total > 0 || t.read_of_unpersisted > 0 then
      match Hashtbl.find_opt t.regions id with
      | None -> ()
      | Some sh ->
          if sh.s_unfenced > 0 then begin
            let lo, hi = line_range ~off ~len sh.nlines in
            let hit = ref false in
            for l = lo to hi do
              if (not !hit) && Char.code (Bytes.get sh.state l) land b_stale <> 0
              then begin
                hit := true;
                report t Read_of_unpersisted ~region_id:id
                  ~detail:
                    (Printf.sprintf
                       "read [%d,%d) touches line %d, unpersisted at an earlier commit point"
                       off (off + len) l)
              end
            done
          end

  let on_crash t =
    (* The crash reverts every region to its durable image: nothing is
       outstanding any more. Findings and counters survive — they describe
       the pre-crash execution. *)
    Hashtbl.iter
      (fun _ sh ->
        Bytes.fill sh.state 0 (Bytes.length sh.state) '\000';
        sh.s_unfenced <- 0)
      t.regions;
    t.unfenced_total <- 0;
    t.epoch_lines <- [];
    t.epoch_flush_calls <- 0

  let error_count t =
    t.missing_flush_at_commit + t.fence_without_flush + t.read_of_unpersisted

  let redundant_flushes t = t.redundant_flush
  let commit_points t = t.commit_points
  let missing_flush_at_commit t = t.missing_flush_at_commit
  let fence_without_flush t = t.fence_without_flush
  let read_of_unpersisted t = t.read_of_unpersisted
  let findings t = List.rev t.findings

  let redundant_by_site t =
    Hashtbl.fold (fun site r acc -> (site, !r) :: acc) t.redundant_sites []
    |> List.sort (fun (_, a) (_, b) -> compare b a)

  let register_metrics t registry =
    let open Obs.Registry in
    register_int registry "sanitize.redundant_flush"
      ~help:"cache-line flushes of already-clean lines" (fun () -> t.redundant_flush);
    register_int registry "sanitize.missing_flush_at_commit"
      ~help:"commit points reached with dirty unflushed lines" (fun () ->
        t.missing_flush_at_commit);
    register_int registry "sanitize.fence_without_flush"
      ~help:"fences issued with no flush since the last fence" (fun () ->
        t.fence_without_flush);
    register_int registry "sanitize.read_of_unpersisted"
      ~help:"recovery-visible reads of never-persisted lines" (fun () ->
        t.read_of_unpersisted);
    register_int registry "sanitize.commit_points"
      ~help:"durability commit points checked by pmsan" (fun () -> t.commit_points)

  let pp ppf t =
    Fmt.pf ppf "pmsan: %d commit point(s), %d error(s)@." t.commit_points
      (error_count t);
    Fmt.pf ppf "  missing-flush-at-commit: %d (%d line(s))@."
      t.missing_flush_at_commit t.unfenced_lines_at_commit;
    Fmt.pf ppf "  fence-without-flush:     %d@." t.fence_without_flush;
    Fmt.pf ppf "  read-of-unpersisted:     %d@." t.read_of_unpersisted;
    Fmt.pf ppf "  redundant flushes:       %d@." t.redundant_flush;
    List.iter
      (fun (site, n) -> Fmt.pf ppf "    %-32s %d@." site n)
      (redundant_by_site t);
    List.iter (fun f -> Fmt.pf ppf "  %s@." (finding_to_string f)) (findings t);
    if t.dropped_findings > 0 then
      Fmt.pf ppf "  (+%d finding(s) dropped)@." t.dropped_findings
end

type pm_event =
  | Alloc of int * int
  | Write of int * int * int
  | Flush of int * int * int
  | Drain
  | Commit of int
  | Read of int * int * int
  | Free of int
  | Crash

let show_event = function
  | Alloc (id, len) -> Printf.sprintf "alloc %d %d" id len
  | Write (id, off, len) -> Printf.sprintf "write %d %d %d" id off len
  | Flush (id, off, len) -> Printf.sprintf "flush %d %d %d" id off len
  | Drain -> "drain"
  | Commit n -> Printf.sprintf "commit c%d" n
  | Read (id, off, len) -> Printf.sprintf "read %d %d %d" id off len
  | Free id -> Printf.sprintf "free %d" id
  | Crash -> "crash"

(* Few region ids and lengths of a few lines, so ranges overlap, regions
   are freed and reallocated, and every state of the line machine is hit. *)
let pm_event_gen =
  QCheck.Gen.(
    let id = int_range 0 3 and off = int_range 0 700 and len = int_range 0 300 in
    frequency
      [
        (2, map2 (fun id len -> Alloc (id, len)) id (int_range 0 800));
        (6, map3 (fun id off len -> Write (id, off, len)) id off len);
        (6, map3 (fun id off len -> Flush (id, off, len)) id off len);
        (3, return Drain);
        (2, map (fun n -> Commit n) (int_range 0 2));
        (2, map3 (fun id off len -> Read (id, off, len)) id off len);
        (1, map (fun id -> Free id) id);
        (1, return Crash);
      ])

let pm_events_arb =
  QCheck.make
    ~print:(fun es -> String.concat "; " (List.map show_event es))
    QCheck.Gen.(list_size (int_range 1 80) pm_event_gen)

let prop_pmsan_matches_reference =
  QCheck.Test.make ~name:"pmsan matches its per-line reference" ~count:500 pm_events_arb
    (fun events ->
      let san = Sanitize.Pmsan.create () and ref_san = Reference.create () in
      let counters () =
        Sanitize.Pmsan.
          [
            error_count san; redundant_flushes san; commit_points san;
            missing_flush_at_commit san; fence_without_flush san; read_of_unpersisted san;
          ]
      and ref_counters () =
        Reference.
          [
            error_count ref_san; redundant_flushes ref_san; commit_points ref_san;
            missing_flush_at_commit ref_san; fence_without_flush ref_san;
            read_of_unpersisted ref_san;
          ]
      in
      let apply = function
        | Alloc (id, len) ->
            Sanitize.Pmsan.on_alloc san ~id ~len;
            Reference.on_alloc ref_san ~id ~len
        | Write (id, off, len) ->
            Sanitize.Pmsan.on_write san ~id ~off ~len;
            Reference.on_write ref_san ~id ~off ~len
        | Flush (id, off, len) ->
            Sanitize.Pmsan.on_flush san ~id ~off ~len;
            Reference.on_flush ref_san ~id ~off ~len
        | Drain ->
            Sanitize.Pmsan.on_drain san;
            Reference.on_drain ref_san
        | Commit n ->
            let name = Printf.sprintf "c%d" n in
            Sanitize.Pmsan.on_commit_point san name;
            Reference.on_commit_point ref_san name
        | Read (id, off, len) ->
            Sanitize.Pmsan.on_read san ~id ~off ~len;
            Reference.on_read ref_san ~id ~off ~len
        | Free id ->
            Sanitize.Pmsan.on_free san ~id;
            Reference.on_free ref_san ~id
        | Crash ->
            Sanitize.Pmsan.on_crash san;
            Reference.on_crash ref_san
      in
      (* Sites name the first frame outside the checker, which differs
         between the two modules: compare findings without them, and the
         per-site redundant-flush counts as a multiset. *)
      let findings =
        List.map
          (fun (f : Sanitize.Pmsan.finding) ->
            (Sanitize.Pmsan.kind_name f.kind, f.region_id, f.detail))
          (Sanitize.Pmsan.findings san)
      and ref_findings =
        List.map
          (fun (f : Reference.finding) -> (Reference.kind_name f.kind, f.region_id, f.detail))
          (Reference.findings ref_san)
      in
      let site_counts l = List.sort compare (List.map snd l) in
      List.for_all
        (fun e ->
          apply e;
          counters () = ref_counters ())
        events
      && findings = ref_findings
      && site_counts (Sanitize.Pmsan.redundant_by_site san)
         = site_counts (Reference.redundant_by_site ref_san))

(* Flushing allocates nothing per line any more: the epoch holds one
   range per flush call in arrays it reuses. *)
let test_flush_allocation_per_call () =
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:1 ~len:(1 lsl 20);
  let flush_round () =
    Sanitize.Pmsan.on_write san ~id:1 ~off:0 ~len:(1 lsl 20);
    Sanitize.Pmsan.on_flush san ~id:1 ~off:0 ~len:(1 lsl 20);
    Sanitize.Pmsan.on_drain san
  in
  flush_round ();
  let w0 = Gc.minor_words () in
  flush_round ();
  let words = Gc.minor_words () -. w0 in
  (* 16,384 lines: the per-line list took six words a line *)
  check Alcotest.bool (Printf.sprintf "%.0f words for 16,384 lines" words) true (words < 100.0)

(* ---------- planted bugs through the real device ---------- *)

let make_pm () =
  let clock = Sim.Clock.create () in
  Pmem.create clock

let build_table pm ~bytes =
  let region = Pmem.alloc pm (4 * bytes) in
  let b = Pmtable.Builder.create pm region in
  let n = bytes / 100 in
  for _ = 1 to n do
    Pmtable.Builder.add_string b (String.make 100 'x')
  done;
  ignore (Pmtable.Builder.finish b : int)

let with_chaos flag f =
  flag := true;
  Fun.protect ~finally:(fun () -> flag := false) f

let test_planted_missing_flush_in_seal () =
  let pm = make_pm () in
  with_chaos Pmtable.Builder.chaos_skip_flush (fun () ->
      build_table pm ~bytes:6000);
  let san = Option.get (Pmem.sanitizer pm) in
  check Alcotest.bool "pmsan catches the dropped clwb" true
    (Sanitize.Pmsan.missing_flush_at_commit san > 0);
  check Alcotest.bool "attributed to the seal" true
    (List.exists
       (fun f -> has_substring f.Sanitize.Pmsan.detail ~sub:"pmtable.seal")
       (Sanitize.Pmsan.findings san))

let test_planted_missing_fence_in_seal () =
  let pm = make_pm () in
  with_chaos Pmtable.Builder.chaos_skip_drain (fun () ->
      build_table pm ~bytes:6000);
  let san = Option.get (Pmem.sanitizer pm) in
  check Alcotest.bool "pmsan catches the dropped fence" true
    (Sanitize.Pmsan.missing_flush_at_commit san > 0)

let test_planted_missing_fence_at_wal_sync () =
  (* the WAL-sync shape: PM bytes flushed but the barrier declared before
     any fence — pmsan must flag the unfenced lines *)
  let pm = make_pm () in
  let region = Pmem.alloc pm 4096 in
  Pmem.write pm region ~off:0 (String.make 256 'w');
  Pmem.flush pm region ~off:0 ~len:256;
  Pmem.commit_point pm "wal.sync";
  let san = Option.get (Pmem.sanitizer pm) in
  check Alcotest.bool "unfenced lines at wal.sync" true
    (Sanitize.Pmsan.missing_flush_at_commit san > 0)

let test_builder_is_dedup_clean () =
  (* multi-chunk builds must flush each line exactly once per build *)
  let pm = make_pm () in
  build_table pm ~bytes:20_000;
  let san = Option.get (Pmem.sanitizer pm) in
  check Alcotest.int "no errors" 0 (Sanitize.Pmsan.error_count san);
  check Alcotest.int "no redundant flushes" 0
    (Sanitize.Pmsan.redundant_flushes san)

let test_sanitizer_detached_when_disabled () =
  Sanitize.Control.disable ();
  Fun.protect ~finally:Sanitize.Control.enable (fun () ->
      let pm = make_pm () in
      check Alcotest.bool "no checker attached" true
        (Pmem.sanitizer pm = None))

let test_sweep_reports_sanitizer_violations () =
  (* the crash sweep runs sanitized: a planted dropped clwb in the builder
     must surface as "sanitizer" invariant violations on legs that build a
     PM table before the crash *)
  let cfg =
    Fault.Crash_sweep.config ~ops:120
      {
        Core.Config.pmblade with
        Core.Config.memtable_bytes = 2 * 1024;
        l0_run_table_bytes = 4 * 1024;
        level_base_bytes = 32 * 1024;
        sstable_target_bytes = 8 * 1024;
        durable = true;
      }
  in
  let total = Fault.Crash_sweep.count_sites cfg in
  (* crash beyond the last site: the full workload (including the tail
     flush that builds PM tables) runs, then the plug is pulled *)
  let p =
    with_chaos Pmtable.Builder.chaos_skip_flush (fun () ->
        Fault.Crash_sweep.run_crash_at cfg (total + 1))
  in
  check Alcotest.bool "sanitizer violations surfaced" true
    (List.exists
       (fun v -> v.Fault.Checker.invariant = "sanitizer")
       p.Fault.Crash_sweep.violations)

(* ---------- the zero-findings bar: unmodified engine ---------- *)

let small_config =
  {
    Core.Config.pmblade with
    Core.Config.memtable_bytes = 4 * 1024;
    l0_run_table_bytes = 8 * 1024;
    level_base_bytes = 64 * 1024;
    sstable_target_bytes = 16 * 1024;
    durable = true;
  }

let test_engine_workload_zero_findings () =
  let engine = Core.Engine.create small_config in
  let rng = Util.Xoshiro.create 0xFEED in
  for i = 0 to 399 do
    let key = Printf.sprintf "user%06d" (Util.Xoshiro.int rng 512) in
    match Util.Xoshiro.int rng 10 with
    | r when r < 7 ->
        Core.Engine.put ~update:true engine ~key
          (Printf.sprintf "%d:%s" i (Util.Xoshiro.string rng 96))
    | 7 | 8 -> ignore (Core.Engine.get engine key)
    | _ -> Core.Engine.delete engine key
  done;
  Core.Engine.flush engine;
  Core.Engine.force_internal_compaction engine;
  ignore (Core.Engine.scan engine ~start:"user000000" ~limit:32);
  let san = Option.get (Pmem.sanitizer (Core.Engine.pm engine)) in
  check Alcotest.int "zero ordering findings" 0 (Sanitize.Pmsan.error_count san);
  check Alcotest.int "zero redundant flushes" 0
    (Sanitize.Pmsan.redundant_flushes san);
  check Alcotest.bool "commit points exercised" true
    (Sanitize.Pmsan.commit_points san > 0)

let test_config_opt_out_detaches () =
  let engine =
    Core.Engine.create { small_config with Core.Config.sanitize = false }
  in
  check Alcotest.bool "config opt-out detaches the checker" true
    (Pmem.sanitizer (Core.Engine.pm engine) = None)

(* ---------- schedsan through the real scheduler ---------- *)

let make_sched () =
  let clock = Sim.Clock.create () in
  let des = Sim.Des.create clock in
  let ssd = Ssd.create clock in
  Coroutine.Scheduler.create ~cores:1
    ~policy:(Coroutine.Scheduler.Cooperative { switch_cost = 0.0 })
    des ssd

let schedsan sched = Option.get (Coroutine.Scheduler.sanitizer sched)

let test_planted_race () =
  (* two tasks read-modify-write an annotated shared counter with a yield
     inside the critical section and no synchronization: a textbook race *)
  let sched = make_sched () in
  let san = schedsan sched in
  let counter = ref 0 in
  for i = 0 to 1 do
    Coroutine.Scheduler.spawn ~name:(Printf.sprintf "rmw-%d" i) sched 0
      (fun () ->
        Sanitize.Schedsan.read san "counter";
        let v = !counter in
        Coroutine.Co.yield ();
        counter := v + 1;
        Sanitize.Schedsan.write san "counter")
  done;
  ignore (Coroutine.Scheduler.run_to_completion sched);
  check Alcotest.bool "race reported" true (Sanitize.Schedsan.races san > 0)

let test_latch_synchronized_is_race_free () =
  (* same shared counter, but the second task only touches it after
     awaiting a latch the first task signals: happens-before covers it *)
  let sched = make_sched () in
  let san = schedsan sched in
  let l = Coroutine.Co.latch ~name:"handoff" () in
  let counter = ref 0 in
  Coroutine.Scheduler.spawn ~name:"producer" sched 0 (fun () ->
      counter := 1;
      Sanitize.Schedsan.write san "counter";
      Coroutine.Co.signal l);
  Coroutine.Scheduler.spawn ~name:"consumer" sched 0 (fun () ->
      Coroutine.Co.await l;
      counter := !counter + 1;
      Sanitize.Schedsan.write san "counter");
  ignore (Coroutine.Scheduler.run_to_completion sched);
  check Alcotest.int "no race" 0 (Sanitize.Schedsan.races san);
  check Alcotest.int "counter saw both writes" 2 !counter

let test_lost_wakeup () =
  let sched = make_sched () in
  let san = schedsan sched in
  let l = Coroutine.Co.latch ~name:"never-signaled" () in
  Coroutine.Scheduler.spawn ~name:"waiter" sched 0 (fun () ->
      Coroutine.Co.await l);
  ignore (Coroutine.Scheduler.run_to_completion sched);
  check Alcotest.bool "lost wakeup reported" true
    (Sanitize.Schedsan.lost_wakeups san > 0)

let test_signaled_waiter_is_not_lost () =
  let sched = make_sched () in
  let san = schedsan sched in
  let l = Coroutine.Co.latch () in
  Coroutine.Scheduler.spawn ~name:"waiter" sched 0 (fun () ->
      Coroutine.Co.await l);
  Coroutine.Scheduler.spawn ~name:"signaler" sched 0 (fun () ->
      Coroutine.Co.work 10.0;
      Coroutine.Co.signal l);
  ignore (Coroutine.Scheduler.run_to_completion sched);
  check Alcotest.int "no lost wakeup" 0 (Sanitize.Schedsan.lost_wakeups san);
  check Alcotest.int "no races" 0 (Sanitize.Schedsan.races san)

(* ---------- obs integration ---------- *)

let test_metrics_registered () =
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:1 ~len:4096;
  Sanitize.Pmsan.on_flush san ~id:1 ~off:0 ~len:64 (* redundant: clean *);
  let reg = Obs.Registry.create () in
  Sanitize.Pmsan.register_metrics san reg;
  let json = Obs.Registry.snapshot_json reg in
  let find name =
    match Option.bind (Obs.Json.member name json) Obs.Json.to_float_opt with
    | Some v -> v
    | None -> Alcotest.failf "metric %s not registered" name
  in
  check (Alcotest.float 1e-9) "redundant flush exported" 1.0
    (find "sanitize.redundant_flush");
  check (Alcotest.float 1e-9) "no ordering errors" 0.0
    (find "sanitize.missing_flush_at_commit")

let () =
  Alcotest.run "sanitize"
    [
      ( "pmsan state machine",
        [
          Alcotest.test_case "clean protocol" `Quick test_clean_protocol;
          Alcotest.test_case "missing flush at commit" `Quick
            test_missing_flush_at_commit;
          Alcotest.test_case "flushed-unfenced at commit" `Quick
            test_flushed_but_unfenced_at_commit;
          Alcotest.test_case "fence without flush" `Quick
            test_fence_without_flush;
          Alcotest.test_case "read of unpersisted" `Quick
            test_read_of_unpersisted;
          Alcotest.test_case "redundant flush kinds" `Quick
            test_redundant_flush_kinds;
          Alcotest.test_case "fence resets epoch" `Quick test_fence_resets_epoch;
          Alcotest.test_case "crash clears outstanding" `Quick
            test_crash_clears_outstanding;
          qtest prop_pmsan_matches_reference;
          Alcotest.test_case "flush allocates per call, not per line" `Quick
            test_flush_allocation_per_call;
          Alcotest.test_case "free forgets region" `Quick
            test_free_forgets_region;
        ] );
      ( "planted bugs",
        [
          Alcotest.test_case "dropped clwb in seal" `Quick
            test_planted_missing_flush_in_seal;
          Alcotest.test_case "dropped fence in seal" `Quick
            test_planted_missing_fence_in_seal;
          Alcotest.test_case "dropped fence at wal.sync" `Quick
            test_planted_missing_fence_at_wal_sync;
          Alcotest.test_case "builder is dedup-clean" `Quick
            test_builder_is_dedup_clean;
          Alcotest.test_case "detached when disabled" `Quick
            test_sanitizer_detached_when_disabled;
          Alcotest.test_case "sweep reports sanitizer violations" `Quick
            test_sweep_reports_sanitizer_violations;
        ] );
      ( "engine zero-findings bar",
        [
          Alcotest.test_case "workload has zero findings" `Quick
            test_engine_workload_zero_findings;
          Alcotest.test_case "config opt-out detaches" `Quick
            test_config_opt_out_detaches;
        ] );
      ( "schedsan",
        [
          Alcotest.test_case "planted race" `Quick test_planted_race;
          Alcotest.test_case "latch-synchronized is race-free" `Quick
            test_latch_synchronized_is_race_free;
          Alcotest.test_case "lost wakeup" `Quick test_lost_wakeup;
          Alcotest.test_case "signaled waiter is not lost" `Quick
            test_signaled_waiter_is_not_lost;
        ] );
      ( "obs",
        [ Alcotest.test_case "metrics registered" `Quick test_metrics_registered ] );
    ]
