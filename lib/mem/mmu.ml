open Lz_arm

type access = Read | Write | Exec

type fault_kind = Translation | Permission

type fault = {
  stage : int;
  level : int;
  kind : fault_kind;
  va : int;
  ipa : int;
  access : access;
}

(* Mutable so the core's fast path can refresh its memoized context
   record in place on a TTBR/PSTATE change instead of allocating a
   fresh record per MSR — zone switches rewrite TTBR0 twice per
   gate transit, and at tenant-churn rates that allocation shows up. *)
type ctx = {
  mutable ttbr0 : int;
  mutable ttbr1 : int;
  mutable vmid : int;
  mutable s2_root : int option;
  mutable el : Pstate.el;
  mutable pan : bool;
  unpriv : bool;
}

type ok = { pa : int; walk_reads : int; tlb_hit : bool }

let asid_shift = 48
let asid_mask = 0x3FFF

let ttbr_value ~root ~asid =
  if asid < 0 || asid > asid_mask then invalid_arg "Mmu.ttbr_value: asid";
  root lor (asid lsl asid_shift)

let ttbr_root v = v land Bits.mask asid_shift
let ttbr_asid v = (v lsr asid_shift) land asid_mask

(* Stage-1 permission check. Returns true when the access is allowed.
   Architectural notes:
   - AP[1] ("user") grants EL0 access; privileged levels retain access
     to user pages for data, subject to PAN.
   - A page accessible at EL0 is never privileged-executable (treated
     as PXN at EL1), independent of PAN.
   - LDTR/STTR ([unpriv]) are checked exactly as EL0 accesses. *)
let[@inline] s1_allows ~(el : Pstate.el) ~pan ~unpriv (a : Pte.s1_attrs)
    access =
  let as_user = el = Pstate.EL0 || unpriv in
  match access with
  | Read -> if as_user then a.user else (not a.user) || not pan
  | Write ->
      (not a.read_only)
      && if as_user then a.user else (not a.user) || not pan
  | Exec ->
      if as_user then a.user && not a.uxn else (not a.pxn) && not a.user

let s2_allows (p : Stage2.perms) access =
  match access with
  | Read -> p.read
  | Write -> p.write
  | Exec -> p.read && p.exec

let fault ~stage ~level ~kind ~va ~ipa ~access =
  Error { stage; level; kind; va; ipa; access }

(* Translate an IPA through stage 2 for a data/fetch access (not a
   table fetch): full permission check. *)
let s2_data phys ~s2_root ~va ~ipa ~access ~reads =
  match Stage2.walk phys ~root:s2_root ~ipa with
  | Error { fault_level } ->
      reads := !reads + fault_level;
      fault ~stage:2 ~level:fault_level ~kind:Translation ~va ~ipa ~access
  | Ok w ->
      reads := !reads + 3;
      if s2_allows w.perms access then Ok (w.pa, w.perms)
      else fault ~stage:2 ~level:w.level ~kind:Permission ~va ~ipa ~access

(* Stage-1 walk in which every table fetch itself goes through stage 2
   (read access implied for walks). *)
let rec s1_walk phys ~s2_root ~table_ipa ~level ~va ~access ~reads =
  let pte_ipa = table_ipa + (8 * ((va lsr (39 - (9 * level))) land 0x1FF)) in
  let pte_pa =
    match s2_root with
    | None ->
        reads := !reads + 1;
        Ok pte_ipa
    | Some root -> (
        match Stage2.walk phys ~root ~ipa:pte_ipa with
        | Error { fault_level } ->
            reads := !reads + fault_level;
            fault ~stage:2 ~level:fault_level ~kind:Translation ~va
              ~ipa:pte_ipa ~access
        | Ok w ->
            reads := !reads + 4;
            if w.perms.read then Ok w.pa
            else
              fault ~stage:2 ~level:w.level ~kind:Permission ~va ~ipa:pte_ipa
                ~access)
  in
  match pte_pa with
  | Error _ as e -> e
  | Ok pte_pa -> (
      let pte = Phys.read64 phys pte_pa in
      if not (Pte.valid pte) then
        fault ~stage:1 ~level ~kind:Translation ~va ~ipa:(-1) ~access
      else if Pte.is_table ~level pte then
        s1_walk phys ~s2_root ~table_ipa:(Pte.out_addr pte) ~level:(level + 1)
          ~va ~access ~reads
      else
        match level with
        | 3 ->
            Ok (Pte.out_addr pte lor (va land 0xFFF), Pte.s1_attrs pte, 4096)
        | 2 ->
            Ok
              ( Pte.out_addr pte lor (va land 0x1FFFFF),
                Pte.s1_attrs pte,
                2 * 1024 * 1024 )
        | _ -> fault ~stage:1 ~level ~kind:Translation ~va ~ipa:(-1) ~access)

(* A successful walk that refills the TLB counts as a TLB refill and a
   page walk on the attached PMU (L1I/ITLB for fetches, L1D/DTLB for
   data). Hardware-threaded through [Tlb.pmu] so every core sharing
   the TLB reports into the same counters, as on a real MPAM-less
   uniprocessor model. *)
let note_refill tlb access =
  match Tlb.pmu tlb with
  | None -> ()
  | Some p ->
      if access = Exec then begin
        Pmu.record p Pmu.Event.l1i_tlb_refill;
        Pmu.record p Pmu.Event.itlb_walk
      end
      else begin
        Pmu.record p Pmu.Event.l1d_tlb_refill;
        Pmu.record p Pmu.Event.dtlb_walk
      end

let select_ttbr ctx va = if Bits.bit va 47 then ctx.ttbr1 else ctx.ttbr0

let[@inline] va_asid ctx ~va = ttbr_asid (select_ttbr ctx va)

(* Allocation-free fast path over a front-cache hit: permission-check
   the cached entry and return the PA directly, raising [Fault] with
   exactly the fault the Result-based TLB-hit path would produce. *)
exception Fault of fault

let[@inline] entry_pa_exn ctx access ~va (e : Tlb.entry) =
  if not (s1_allows ~el:ctx.el ~pan:ctx.pan ~unpriv:ctx.unpriv e.attrs access)
  then
    raise
      (Fault { stage = 1; level = 3; kind = Permission; va; ipa = -1; access });
  (match e.s2 with
  | Some perms when not (s2_allows perms access) ->
      raise
        (Fault
           { stage = 2; level = 3; kind = Permission; va; ipa = -1; access })
  | _ -> ());
  e.pa_page lor (va land (e.page_bytes - 1))

(* Complete a translation whose TLB lookup already ran and missed:
   walk, permission-check, refill. Split out of [translate] so the
   core's allocation-free fast path can pair its own [Tlb.lookup]
   (which returns the table's preboxed entry) with [entry_pa_exn] on
   a hit and fall through to this walk only on a real miss — the
   accounting (one hit/miss per access, walk reads charged only here,
   refill noted only after an insert) is identical to [translate]. *)
let translate_walk phys tlb ctx access ~va =
  let ttbr = select_ttbr ctx va in
  let asid = ttbr_asid ttbr in
  let check_and_finish ~pa ~attrs ~s2 ~walk_reads ~tlb_hit =
    if not (s1_allows ~el:ctx.el ~pan:ctx.pan ~unpriv:ctx.unpriv attrs access)
    then fault ~stage:1 ~level:3 ~kind:Permission ~va ~ipa:(-1) ~access
    else
      match s2 with
      | Some perms when not (s2_allows perms access) ->
          fault ~stage:2 ~level:3 ~kind:Permission ~va ~ipa:(-1) ~access
      | _ -> Ok { pa; walk_reads; tlb_hit }
  in
  (
      let reads = ref 0 in
      match
        s1_walk phys ~s2_root:ctx.s2_root ~table_ipa:(ttbr_root ttbr)
          ~level:0 ~va ~access ~reads
      with
      | Error _ as e -> e
      | Ok (ipa, attrs, page_bytes) -> (
          (* Stage-1 permission faults take priority over stage-2
             translation of the output address, as on hardware. *)
          if
            not
              (s1_allows ~el:ctx.el ~pan:ctx.pan ~unpriv:ctx.unpriv attrs
                 access)
          then fault ~stage:1 ~level:3 ~kind:Permission ~va ~ipa:(-1) ~access
          else
          (* The stage-1 output is an IPA when stage 2 is active. *)
          match ctx.s2_root with
          | None ->
              let entry =
                { Tlb.pa_page = Bits.align_down ipa page_bytes; attrs;
                  s2 = None; page_bytes }
              in
              let r =
                check_and_finish ~pa:ipa ~attrs ~s2:None ~walk_reads:!reads
                  ~tlb_hit:false
              in
              (match r with
              | Ok _ ->
                  Tlb.insert tlb ~vmid:ctx.vmid ~asid ~va
                    ~global:(not attrs.ng) entry;
                  note_refill tlb access
              | Error _ -> ());
              r
          | Some s2_root -> (
              match s2_data phys ~s2_root ~va ~ipa ~access ~reads with
              | Error _ as e -> e
              | Ok (pa, perms) ->
                  let entry =
                    { Tlb.pa_page = Bits.align_down pa page_bytes; attrs;
                      s2 = Some perms; page_bytes }
                  in
                  let r =
                    check_and_finish ~pa ~attrs ~s2:(Some perms)
                      ~walk_reads:!reads ~tlb_hit:false
                  in
                  (match r with
                  | Ok _ ->
                      Tlb.insert tlb ~vmid:ctx.vmid ~asid ~va
                        ~global:(not attrs.ng) entry;
                      note_refill tlb access
                  | Error _ -> ());
                  r)))

let translate ?front phys tlb ctx access ~va =
  let asid = va_asid ctx ~va in
  match Tlb.lookup ?front tlb ~vmid:ctx.vmid ~asid ~va with
  | Some e -> (
      let pa = e.pa_page lor (va land (e.page_bytes - 1)) in
      if
        not (s1_allows ~el:ctx.el ~pan:ctx.pan ~unpriv:ctx.unpriv e.attrs access)
      then fault ~stage:1 ~level:3 ~kind:Permission ~va ~ipa:(-1) ~access
      else
        match e.s2 with
        | Some perms when not (s2_allows perms access) ->
            fault ~stage:2 ~level:3 ~kind:Permission ~va ~ipa:(-1) ~access
        | _ -> Ok { pa; walk_reads = 0; tlb_hit = true })
  | None -> translate_walk phys tlb ctx access ~va

let pp_fault ppf f =
  Format.fprintf ppf "stage-%d level-%d %s fault va=0x%x%s (%s)" f.stage
    f.level
    (match f.kind with Translation -> "translation" | Permission -> "permission")
    f.va
    (if f.ipa >= 0 then Printf.sprintf " ipa=0x%x" f.ipa else "")
    (match f.access with Read -> "read" | Write -> "write" | Exec -> "exec")
