(* Property-based tests over the core invariants:

   - the sanitizer never lets an instruction through that could move
     the translation base or return from an exception;
   - the MMU permission model is monotone (PAN only removes rights;
     read-only only removes writes);
   - stage-1 trees keep unrelated mappings intact under random
     map/unmap interleavings;
   - the TLB is a transparent cache: with and without it, translation
     agrees; and it matches a FIFO reference model operation by
     operation;
   - demand paging installs exactly the pages a program touches and
     is invisible to it;
   - AES encrypt/decrypt are inverses for random keys and plaintexts;
   - a LightZone process with N random domains allows exactly the
     accesses its protection registry says it should. *)

open Lz_arm
open Lz_mem
open Lightzone

let q = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Sanitizer properties *)

let arbitrary_word =
  QCheck2.Gen.(map2 (fun a b -> a lor (b lsl 16)) (int_bound 0xFFFF)
                 (int_bound 0xFFFF))

let prop_sanitizer_blocks_ttbr_writes =
  QCheck2.Test.make ~name:"sanitizer: no TTBR0/TTBR1 write passes as Allowed"
    ~count:5000 arbitrary_word (fun w ->
      match Encoding.decode w with
      | Insn.Msr (Sysreg.TTBR0_EL1, _) | Insn.Msr (Sysreg.TTBR1_EL1, _) ->
          Sanitizer.classify Sanitizer.Ttbr_mode w <> Sanitizer.Allowed
          && Sanitizer.classify Sanitizer.Pan_mode w <> Sanitizer.Allowed
      | _ -> true)

let prop_sanitizer_blocks_eret =
  QCheck2.Test.make ~name:"sanitizer: ERET never allowed" ~count:1000
    QCheck2.Gen.unit (fun () ->
      Sanitizer.classify Sanitizer.Ttbr_mode 0xD69F03E0 <> Sanitizer.Allowed)

let prop_sanitizer_pan_mode_blocks_unpriv =
  QCheck2.Test.make
    ~name:"sanitizer: every unprivileged load/store blocked in PAN mode"
    ~count:3000 arbitrary_word (fun w ->
      match Encoding.decode w with
      | Insn.Ldtr _ | Insn.Sttr _ | Insn.Ldtrb _ | Insn.Sttrb _ ->
          (match Sanitizer.classify Sanitizer.Pan_mode w with
          | Sanitizer.Forbidden _ -> true
          | _ -> false)
      | _ -> true)

let prop_sanitizer_allows_plain_code =
  QCheck2.Test.make ~name:"sanitizer: ALU/branch/load/store always allowed"
    ~count:3000 arbitrary_word (fun w ->
      match Encoding.decode w with
      | Insn.Add _ | Insn.Sub _ | Insn.Movz _ | Insn.Movk _ | Insn.B _
      | Insn.Bl _ | Insn.Ret _ | Insn.Ldr _ | Insn.Str _ | Insn.Cbz _ ->
          Sanitizer.classify Sanitizer.Ttbr_mode w = Sanitizer.Allowed
          && Sanitizer.classify Sanitizer.Pan_mode w = Sanitizer.Allowed
      | _ -> true)

(* [scan_page] classifies only the words its inline masks cannot pass
   as plain code; it must report what a [classify] of every word in
   order reports: the same first offset, word and reason, in both
   modes. Pages mix plain code with random words and planted words
   of every class the sanitizer knows, including the raw ERET,
   LDTR/STTR and system-space encodings around the masks. *)
let reference_scan mode words =
  let rec go i =
    if i >= Array.length words then Ok ()
    else
      match Sanitizer.classify mode words.(i) with
      | Sanitizer.Allowed -> go (i + 1)
      | Sanitizer.Gate_only ->
          Error (4 * i, words.(i), "TTBR0_EL1 access outside the call gate")
      | Sanitizer.Forbidden why -> Error (4 * i, words.(i), why)
  in
  go 0

let scan_phys = lazy (let p = Phys.create () in (p, Phys.alloc_frame p))

let prop_scan_page_matches_classify =
  let e = Encoding.encode in
  let plain =
    QCheck2.Gen.(
      frequency
        [ ( 3,
            oneofl
              (List.map e
                 [ Insn.Add (1, 2, Insn.Imm 3); Insn.Sub (4, 4, Insn.Reg 5);
                   Insn.Movz (6, 0x1234, 16); Insn.Eor_reg (7, 8, 9);
                   Insn.Ldr (1, 2, 8); Insn.Str (3, 4, 16);
                   Insn.Strb (5, 6, 1); Insn.B 16; Insn.Bl (-8);
                   Insn.Bcond (Insn.NE, 12); Insn.Cbz (1, 8); Insn.Ret 30 ]) );
          (1, arbitrary_word) ])
  in
  let planted =
    QCheck2.Gen.(
      oneof
        [ oneofl [ 0xD69F03E0; 0xD69F0BFF; 0xD69F0FFF ];
          (* the LDTR/STTR family: any size, opc, imm9 and registers *)
          map
            (fun w -> w land lnot 0x3F200C00 land 0xFFFFFFFF lor 0x38000800)
            arbitrary_word;
          (* the system space: MSR/MRS, MSR (immediate), hints, SYS *)
          map (fun w -> 0xD5000000 lor (w land 0x3FFFFF)) arbitrary_word;
          oneofl
            (List.map e
               [ Insn.Eret; Insn.Ldtr (1, 2, 8); Insn.Sttr (3, 4, -8);
                 Insn.Ldtrb (5, 6, 1); Insn.Sttrb (7, 8, 0);
                 Insn.Msr (Sysreg.TTBR0_EL1, 3); Insn.Mrs (4, Sysreg.TTBR0_EL1);
                 Insn.Msr (Sysreg.TTBR1_EL1, 1); Insn.Msr (Sysreg.VBAR_EL1, 2);
                 Insn.Mrs (5, Sysreg.DAIF); Insn.Msr_pstate (Insn.PAN, 1);
                 Insn.Msr_pstate (Insn.DAIFSet, 0xF); Insn.Nop; Insn.Isb;
                 Insn.Dsb; Insn.Wfi; Insn.Tlbi_vmalle1; Insn.Tlbi_vae1is 2;
                 Insn.Tlbi_aside1is 3; Insn.At_s1e1r 1; Insn.Dc_civac 2;
                 Insn.Ic_iallu ]) ])
  in
  QCheck2.Test.make ~name:"sanitizer: scan_page reports what classify does"
    ~count:300
    QCheck2.Gen.(
      pair
        (array_size (return 1024) plain)
        (list_size (int_range 0 4) (pair (int_bound 1023) planted)))
    (fun (words, plants) ->
      List.iter (fun (i, w) -> words.(i) <- w) plants;
      let p, pa = Lazy.force scan_phys in
      Array.iteri (fun i w -> Phys.write32 p (pa + (4 * i)) w) words;
      List.for_all
        (fun mode -> Sanitizer.scan_page mode p ~pa = reference_scan mode words)
        [ Sanitizer.Ttbr_mode; Sanitizer.Pan_mode ])

(* ------------------------------------------------------------------ *)
(* MMU permission monotonicity *)

let attrs_gen =
  QCheck2.Gen.(
    map4
      (fun user ro uxn (pxn, ng) -> { Pte.user; read_only = ro; uxn; pxn; ng })
      bool bool bool (pair bool bool))

let accesses = [ Mmu.Read; Mmu.Write; Mmu.Exec ]

let allowed ~el ~pan attrs access =
  let phys = Phys.create () in
  let tlb = Tlb.create () in
  let root = Stage1.create_root phys in
  Stage1.map_page phys ~root ~va:0x1000 ~pa:0x5000 attrs;
  let ctx =
    { Mmu.ttbr0 = Mmu.ttbr_value ~root ~asid:1; ttbr1 = 0; vmid = 0;
      s2_root = None; el; pan; unpriv = false }
  in
  Result.is_ok (Mmu.translate phys tlb ctx access ~va:0x1000)

let prop_pan_only_removes =
  QCheck2.Test.make ~name:"mmu: PAN never grants an access" ~count:300
    attrs_gen (fun a ->
      List.for_all
        (fun acc ->
          let without = allowed ~el:Pstate.EL1 ~pan:false a acc in
          let with_pan = allowed ~el:Pstate.EL1 ~pan:true a acc in
          (not with_pan) || without)
        accesses)

let prop_read_only_blocks_writes =
  QCheck2.Test.make ~name:"mmu: read_only always blocks writes" ~count:300
    attrs_gen (fun a ->
      not (allowed ~el:Pstate.EL1 ~pan:false { a with Pte.read_only = true }
             Mmu.Write))

let prop_el0_needs_user =
  QCheck2.Test.make ~name:"mmu: EL0 cannot touch kernel pages" ~count:300
    attrs_gen (fun a ->
      List.for_all
        (fun acc ->
          not (allowed ~el:Pstate.EL0 ~pan:false { a with Pte.user = false }
                 acc))
        accesses)

let prop_el1_never_executes_user_pages =
  QCheck2.Test.make ~name:"mmu: EL1 never executes user pages" ~count:300
    attrs_gen (fun a ->
      not (allowed ~el:Pstate.EL1 ~pan:false { a with Pte.user = true }
             Mmu.Exec))

(* ------------------------------------------------------------------ *)
(* Stage-1 under random operation sequences *)

type s1_op = Map of int * int | Unmap of int

let s1_ops_gen =
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (oneof
         [ map2 (fun v p -> Map (v land 0x3FF, (p land 0x3FF) + 1))
             (int_bound 0x3FF) (int_bound 0x3FF);
           map (fun v -> Unmap (v land 0x3FF)) (int_bound 0x3FF) ]))

let prop_s1_model_agreement =
  QCheck2.Test.make ~name:"stage1: agrees with a map model" ~count:200
    s1_ops_gen (fun ops ->
      let phys = Phys.create () in
      let root = Stage1.create_root phys in
      let model = Hashtbl.create 64 in
      List.iter
        (fun op ->
          match op with
          | Map (vp, pp) ->
              Stage1.map_page phys ~root ~va:(vp * 4096) ~pa:(pp * 4096)
                { Pte.user = false; read_only = false; uxn = true;
                  pxn = true; ng = true };
              Hashtbl.replace model vp pp
          | Unmap vp ->
              Stage1.unmap phys ~root ~va:(vp * 4096);
              Hashtbl.remove model vp)
        ops;
      Hashtbl.fold
        (fun vp pp ok ->
          ok
          &&
          match Stage1.walk phys ~root ~va:(vp * 4096) with
          | Ok w -> w.Stage1.pa = pp * 4096
          | Error _ -> false)
        model true
      &&
      (* and nothing unexpected resolves *)
      List.for_all
        (fun op ->
          match op with
          | Unmap vp when not (Hashtbl.mem model vp) ->
              Result.is_error (Stage1.walk phys ~root ~va:(vp * 4096))
          | _ -> true)
        ops)

(* ------------------------------------------------------------------ *)
(* TLB transparency *)

let prop_tlb_transparent =
  QCheck2.Test.make ~name:"tlb: cached translation equals uncached"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 40) (int_bound 0xFF))
    (fun vps ->
      let phys = Phys.create () in
      let tlb = Tlb.create ~capacity:8 () in
      let no_tlb = Tlb.create ~capacity:1 () in
      let root = Stage1.create_root phys in
      List.iteri
        (fun i vp ->
          Stage1.map_page phys ~root ~va:(vp * 4096)
            ~pa:((i + 1) * 4096)
            { Pte.user = false; read_only = false; uxn = true; pxn = true;
              ng = i mod 2 = 0 })
        vps;
      let ctx tlb_ =
        ignore tlb_;
        { Mmu.ttbr0 = Mmu.ttbr_value ~root ~asid:3; ttbr1 = 0; vmid = 0;
          s2_root = None; el = Pstate.EL1; pan = false; unpriv = false }
      in
      (* Touch everything twice through the small TLB and compare with
         a TLB too small to ever hit. *)
      List.for_all
        (fun vp ->
          let a = Mmu.translate phys tlb (ctx tlb) Mmu.Read ~va:(vp * 4096) in
          let b =
            Mmu.translate phys no_tlb (ctx no_tlb) Mmu.Read ~va:(vp * 4096)
          in
          match (a, b) with
          | Ok x, Ok y -> x.Mmu.pa = y.Mmu.pa
          | Error _, Error _ -> true
          | _ -> false)
        (vps @ vps))

(* ------------------------------------------------------------------ *)
(* Int_table against Hashtbl

   The TLB index, its context interning and the decode cache all rest
   on [Int_table]'s linear probing and backward-shift deletion. Keys
   come from a small universe so that probe runs collide, wrap around
   the bucket array and force growth; after every step each key's
   binding and the length must match a [Hashtbl]. *)

type itab_op =
  | I_replace of int * int
  | I_remove of int
  | I_clear
  | I_copy  (** continue on a copy; the original is cleared *)

let prop_int_table_model =
  let key =
    QCheck2.Gen.(
      oneof
        [ int_bound 40; map (fun i -> (1 lsl 40) + (i * 4096)) (int_bound 20) ])
  in
  QCheck2.Test.make ~name:"int_table: agrees with Hashtbl" ~count:500
    QCheck2.Gen.(
      list_size (int_range 1 120)
        (frequency
           [ (6, map2 (fun k v -> I_replace (k, v)) key (int_bound 1000));
             (3, map (fun k -> I_remove k) key);
             (1, return I_clear);
             (1, return I_copy) ]))
    (fun ops ->
      let t = ref (Int_table.create 2) and m = Hashtbl.create 16 in
      let universe =
        List.init 41 Fun.id @ List.init 21 (fun i -> (1 lsl 40) + (i * 4096))
      in
      List.for_all
        (fun op ->
          (match op with
          | I_replace (k, v) ->
              Int_table.replace !t k v;
              Hashtbl.replace m k v
          | I_remove k ->
              Int_table.remove !t k;
              Hashtbl.remove m k
          | I_clear ->
              Int_table.clear !t;
              Hashtbl.reset m
          | I_copy ->
              let c = Int_table.copy !t in
              Int_table.clear !t;
              t := c);
          Int_table.length !t = Hashtbl.length m
          && List.for_all
               (fun k ->
                 Int_table.find !t k
                 = Option.value (Hashtbl.find_opt m k) ~default:(-1))
               universe)
        ops)

(* ------------------------------------------------------------------ *)
(* TLB against a reference model

   All three execution engines share one [Tlb], so the engine
   differential cannot see a change in TLB semantics. This property
   runs random operation sequences against a naive FIFO association
   list — keyed by (vmid, asid or -1 for global, page) exactly as the
   TLB documents its matching — and compares every lookup result, the
   hit/miss counters, the size, the FIFO length and the key the next
   eviction removes after every step. *)

type tlb_op =
  | T_insert of { vmid : int; asid : int; va : int; global : bool; big : bool }
  | T_lookup of { vmid : int; asid : int; va : int }
  | T_probe of { vmid : int; asid : int; va : int; front : int }
      (** the core's access path: [front_probe], then [lookup_front] *)
  | T_flush_all
  | T_flush_vmid of int
  | T_flush_asid of { vmid : int; asid : int }
  | T_flush_va of { vmid : int; va : int }
  | T_capture
  | T_restore of { retag : int option; fresh : bool }

let pp_tlb_op = function
  | T_insert { vmid; asid; va; global; big } ->
      Printf.sprintf "insert v%d a%d %#x%s%s" vmid asid va
        (if global then " global" else "")
        (if big then " 2M" else "")
  | T_lookup { vmid; asid; va } ->
      Printf.sprintf "lookup v%d a%d %#x" vmid asid va
  | T_probe { vmid; asid; va; front } ->
      Printf.sprintf "probe[%d] v%d a%d %#x" front vmid asid va
  | T_flush_all -> "flush_all"
  | T_flush_vmid v -> Printf.sprintf "flush_vmid v%d" v
  | T_flush_asid { vmid; asid } -> Printf.sprintf "flush_asid v%d a%d" vmid asid
  | T_flush_va { vmid; va } -> Printf.sprintf "flush_va v%d %#x" vmid va
  | T_capture -> "capture"
  | T_restore { retag; fresh } ->
      Printf.sprintf "restore%s%s"
        (match retag with Some v -> Printf.sprintf " retag v%d" v | None -> "")
        (if fresh then " fresh" else "")

let m2 = 2 * 1024 * 1024

let tlb_ops_gen =
  let open QCheck2.Gen in
  let vmid = int_bound 3 and asid = int_bound 3 in
  (* A few pages, including the first 4 KiB page of each 2 MiB block,
     where a 4 KiB entry and a 2 MiB entry share a page number. *)
  let va =
    map2
      (fun p off -> (p * 4096) + off)
      (oneofl [ 0; 1; 2; 3; 511; 512; 513; 1024 ])
      (int_bound 4095)
  in
  pair (int_range 1 6)
    (list_size (int_range 1 80)
       (frequency
          [ ( 6,
              map4
                (fun vmid asid va (global, big) ->
                  T_insert { vmid; asid; va; global; big })
                vmid asid va
                (pair bool (frequencyl [ (4, false); (1, true) ])) );
            ( 3,
              map3
                (fun vmid asid va -> T_lookup { vmid; asid; va })
                vmid asid va );
            ( 4,
              map4
                (fun vmid asid va front -> T_probe { vmid; asid; va; front })
                vmid asid va (int_bound 1) );
            (1, return T_flush_all);
            (1, map (fun v -> T_flush_vmid v) vmid);
            (1, map2 (fun vmid asid -> T_flush_asid { vmid; asid }) vmid asid);
            (1, map2 (fun vmid va -> T_flush_va { vmid; va }) vmid va);
            (1, return T_capture);
            ( 2,
              map2
                (fun retag fresh -> T_restore { retag; fresh })
                (option vmid) bool ) ]))

(* The model: live entries oldest first, the counters, and the VMIDs
   whose contexts the TLB has interned (any lookup or insert interns
   its VMID; a retag must target a VMID the image never interned, as
   forking does, or two contexts would claim one (vmid, asid)). *)
type tlb_model = {
  cap : int;
  mutable fifo : ((int * int * int) * Tlb.entry) list;
  mutable m_hits : int;
  mutable m_misses : int;
  mutable interned : int list;
}

let model_lookup m ~vmid ~asid ~va =
  let find k = List.assoc_opt k m.fifo in
  let probe vp =
    match find (vmid, asid, vp) with
    | Some _ as r -> r
    | None -> find (vmid, -1, vp)
  in
  let r =
    match probe (va land lnot 4095) with
    | Some _ as r -> r
    | None -> (
        match probe (va land lnot (m2 - 1)) with
        | Some e when e.Tlb.page_bytes > 4096 -> Some e
        | _ -> None)
  in
  (match r with
  | Some _ -> m.m_hits <- m.m_hits + 1
  | None -> m.m_misses <- m.m_misses + 1);
  if not (List.mem vmid m.interned) then m.interned <- vmid :: m.interned;
  r

let model_insert m ~vmid ~asid ~va ~global (e : Tlb.entry) =
  let k =
    (vmid, (if global then -1 else asid), va land lnot (e.Tlb.page_bytes - 1))
  in
  if List.mem_assoc k m.fifo then
    m.fifo <- List.map (fun (k', e') -> (k', if k' = k then e else e')) m.fifo
  else begin
    let fifo =
      if List.length m.fifo >= m.cap then List.tl m.fifo else m.fifo
    in
    m.fifo <- fifo @ [ (k, e) ]
  end;
  if not (List.mem vmid m.interned) then m.interned <- vmid :: m.interned

let model_remove_if m pred =
  m.fifo <- List.filter (fun (k, _) -> not (pred k)) m.fifo

let prop_tlb_reference_model =
  QCheck2.Test.make ~name:"tlb: agrees with a FIFO reference model"
    ~count:1000
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap
        (String.concat "; " (List.map pp_tlb_op ops)))
    tlb_ops_gen
    (fun (cap, ops) ->
      let tlb = ref (Tlb.create ~capacity:cap ()) in
      let fronts = ref [| Tlb.front_create (); Tlb.front_create () |] in
      let m = { cap; fifo = []; m_hits = 0; m_misses = 0; interned = [] } in
      let snap = ref None in
      let fresh_pa = ref 0 in
      let same_entry a b =
        match (a, b) with
        | Some x, Some y -> x == y
        | None, None -> true
        | _ -> false
      in
      let step op =
        let t = !tlb in
        let result_ok =
          match op with
          | T_insert { vmid; asid; va; global; big } ->
              incr fresh_pa;
              let page_bytes = if big then m2 else 4096 in
              let e =
                { Tlb.pa_page = !fresh_pa * m2;
                  attrs =
                    { Pte.user = false; read_only = false; uxn = true;
                      pxn = true; ng = not global };
                  s2 = None;
                  page_bytes }
              in
              Tlb.insert t ~vmid ~asid ~va ~global e;
              model_insert m ~vmid ~asid ~va ~global e;
              true
          | T_lookup { vmid; asid; va } ->
              same_entry
                (Tlb.lookup t ~vmid ~asid ~va)
                (model_lookup m ~vmid ~asid ~va)
          | T_probe { vmid; asid; va; front } ->
              let fr = !fronts.(front) in
              let got =
                match Tlb.front_probe t fr ~vmid ~asid ~va with
                | Some _ as r -> r
                | None -> Tlb.lookup_front t fr ~vmid ~asid ~va
              in
              same_entry got (model_lookup m ~vmid ~asid ~va)
          | T_flush_all ->
              Tlb.flush_all t;
              m.fifo <- [];
              true
          | T_flush_vmid v ->
              Tlb.flush_vmid t v;
              model_remove_if m (fun (v', _, _) -> v' = v);
              true
          | T_flush_asid { vmid; asid } ->
              Tlb.flush_asid t ~vmid ~asid;
              model_remove_if m (fun (v, a, _) -> v = vmid && a = asid);
              true
          | T_flush_va { vmid; va } ->
              Tlb.flush_va t ~vmid ~va;
              model_remove_if m (fun (v, _, vp) ->
                  v = vmid
                  && (vp = va land lnot 4095 || vp = va land lnot (m2 - 1)));
              true
          | T_capture ->
              snap :=
                Some
                  ( Tlb.capture t,
                    (m.fifo, m.m_hits, m.m_misses, m.interned) );
              true
          | T_restore { retag; fresh } -> (
              match !snap with
              | None -> true
              | Some (st, (fifo, hits, misses, interned)) ->
                  let retag =
                    match retag with
                    | None -> None
                    | Some old -> (
                        match
                          List.find_opt
                            (fun v -> not (List.mem v interned))
                            [ 0; 1; 2; 3; 4; 5; 6; 7 ]
                        with
                        | Some nv -> Some (old, nv)
                        | None -> None)
                  in
                  let t =
                    if fresh then begin
                      tlb := Tlb.create ~capacity:cap ();
                      fronts := [| Tlb.front_create (); Tlb.front_create () |];
                      !tlb
                    end
                    else t
                  in
                  Tlb.restore ?retag t st;
                  let map_v v =
                    match retag with
                    | Some (old, nv) when v = old -> nv
                    | _ -> v
                  in
                  m.fifo <-
                    List.map (fun ((v, a, vp), e) -> ((map_v v, a, vp), e)) fifo;
                  m.m_hits <- hits;
                  m.m_misses <- misses;
                  m.interned <- List.map map_v interned;
                  true)
        in
        let t = !tlb in
        let oldest =
          match m.fifo with [] -> None | (k, _) :: _ -> Some k
        in
        result_ok
        && Tlb.hits t = m.m_hits
        && Tlb.misses t = m.m_misses
        && Tlb.size t = List.length m.fifo
        && Tlb.fifo_length t = List.length m.fifo
        && Tlb.oldest t = oldest
      in
      List.for_all step ops)

(* ------------------------------------------------------------------ *)
(* AES inverse *)

let prop_aes_roundtrip =
  QCheck2.Test.make ~name:"aes: decrypt . encrypt = id" ~count:200
    QCheck2.Gen.(pair (string_size (return 16)) (string_size (return 16)))
    (fun (key, plain) ->
      let k = Lz_workloads.Aes.expand_key key in
      let buf = Bytes.of_string plain in
      Lz_workloads.Aes.encrypt_block k buf ~pos:0;
      let changed = Bytes.to_string buf <> plain in
      Lz_workloads.Aes.decrypt_block k buf ~pos:0;
      changed && Bytes.to_string buf = plain)

let prop_aes_cbc_roundtrip =
  QCheck2.Test.make ~name:"aes: CBC roundtrip, multi-block" ~count:100
    QCheck2.Gen.(
      triple (string_size (return 16)) (string_size (return 16))
        (int_range 1 8))
    (fun (key, iv, blocks) ->
      let k = Lz_workloads.Aes.expand_key key in
      let plain =
        Bytes.init (16 * blocks) (fun i -> Char.chr ((i * 7) land 0xFF))
      in
      let iv = Bytes.of_string iv in
      let c = Lz_workloads.Aes.encrypt_cbc k ~iv plain in
      Bytes.equal (Lz_workloads.Aes.decrypt_cbc k ~iv c) plain)

(* ------------------------------------------------------------------ *)
(* LightZone end-to-end domain-policy property *)

let code_va = 0x400000
let domains_va = 0x600000
let stack_va = 0x7F0000000000

(* Random policy: [n] domains, each attached to one of three page
   tables; a probe sequence of (pgt, domain) accesses. The process
   must survive exactly the accesses whose domain is attached to the
   table it is in, and be terminated at the first violation. *)
let prop_lz_policy =
  QCheck2.Test.make ~name:"lightzone: registry decides every access"
    ~count:40
    QCheck2.Gen.(
      pair
        (list_size (return 6) (int_bound 2))  (* domain -> pgt index *)
        (list_size (int_range 1 8) (pair (int_bound 2) (int_bound 5))))
    (fun (attach, probes) ->
      let machine = Lz_kernel.Machine.create () in
      let kernel = Lz_kernel.Kernel.create machine Lz_kernel.Kernel.Host_vhe in
      let proc = Lz_kernel.Kernel.create_process kernel in
      ignore (Lz_kernel.Kernel.map_anon kernel proc ~at:(stack_va - 0x10000)
                ~len:0x10000 Lz_kernel.Vma.rw);
      ignore (Lz_kernel.Kernel.map_anon kernel proc ~at:domains_va
                ~len:(6 * 4096) Lz_kernel.Vma.rw);
      let t =
        Api.lz_enter ~allow_scalable:true ~insn_san:1 ~entry:code_va
          ~sp:stack_va kernel proc
      in
      let pgts = Array.init 3 (fun _ -> Api.lz_alloc t) in
      List.iteri
        (fun d p ->
          Api.lz_prot t ~addr:(domains_va + (d * 4096)) ~len:4096
            ~pgt:pgts.(p) ~perm:(Perm.read lor Perm.write))
        attach;
      (* Expected outcome: scan the probes for the first violation. *)
      let expected_violation =
        List.exists
          (fun (p, d) -> List.nth attach d <> p)
          probes
      in
      (* Drive via the module-side helpers (equivalent to gate passes
         for policy purposes; the gate mechanics are covered by their
         own tests). *)
      let violated = ref false in
      List.iter
        (fun (p, d) ->
          if not !violated then begin
            Kmod.set_current_pgt t pgts.(p);
            Kmod.prefault t ~va:(domains_va + (d * 4096))
              ~access:Lz_mem.Mmu.Read;
            match t.Kmod.terminated with
            | Some _ -> violated := true
            | None -> ()
          end)
        probes;
      !violated = expected_violation)

(* ------------------------------------------------------------------ *)
(* Execution-engine differential: the per-instruction fast path
   (decoded-insn cache, micro-TLBs, memoized MMU context) and the
   superblock engine layered on it must both be architecturally
   invisible. Run each microbench program all three ways on a random
   iteration count and require bit-identical registers, PSTATE, stack
   pointers, memory, cycle/instruction totals and TLB statistics. *)

module Core = Lz_cpu.Core
module Differential = Lz_cpu.Differential

(* Three-engine properties fail through [across_engines]' report,
   which names the engine and the field. *)
let engines_agree setup =
  ignore (Differential.across_engines setup);
  true

(* A fresh EL1 core: each (va, attrs, program) gets its own frame,
   with the program assembled at its start; pc at the first page.
   Returns the core and the frames, in order. *)
let fresh_core ?tracer ~engine pages =
  let phys = Phys.create () in
  let root = Stage1.create_root phys in
  let pas =
    List.map
      (fun (va, attrs, prog) ->
        let pa = Phys.alloc_frame phys in
        Stage1.map_page phys ~root ~va ~pa attrs;
        List.iteri
          (fun i insn ->
            Phys.write32 phys (pa + (4 * i)) (Encoding.encode insn))
          prog;
        pa)
      pages
  in
  let core =
    Core.create ~engine phys (Tlb.create ()) Lz_cpu.Cost_model.cortex_a55
      Pstate.EL1
  in
  Core.set_tracer core tracer;
  Sysreg.write core.Core.sys Sysreg.TTBR0_EL1 (Mmu.ttbr_value ~root ~asid:1);
  (match pages with (va, _, _) :: _ -> core.Core.pc <- va | [] -> ());
  (core, pas)

let page ~w ~x =
  { Pte.user = false; read_only = not w; uxn = true; pxn = not x; ng = true }

let run_to_brk what core =
  match Core.run ~max_insns:max_int core with
  | Core.Trap_el1 (Core.Ec_brk _) | Core.Trap_el2 (Core.Ec_brk _) -> ()
  | s -> Alcotest.failf "%s: unexpected stop %a" what Core.pp_stop s

(* [run_to_brk], servicing harness-side every generic-timer tick when
   [slice] is given, and every instruction abort through [on_iabort]
   (which must leave the core resumable); returns the tick count. *)
let run_serviced ?slice ?on_iabort what core =
  let timer =
    Option.map
      (fun slice ->
        let iv = Core.attach_irq core in
        Lz_irq.Irq.init iv;
        Lz_irq.Timer.program iv.Lz_irq.Irq.timer ~now:core.Core.cycles ~slice;
        (iv, slice))
      slice
  in
  let ticks = ref 0 in
  let rec loop () =
    match (Core.run ~max_insns:max_int core, timer, on_iabort) with
    | (Core.Trap_el1 (Core.Ec_brk _) | Core.Trap_el2 (Core.Ec_brk _)), _, _ ->
        ()
    | Core.Trap_el1 (Core.Ec_irq intid), Some (iv, slice), _ ->
        ignore (Lz_irq.Irq.ack iv);
        if intid = Lz_irq.Gic.ppi_el1_timer then begin
          incr ticks;
          Lz_irq.Timer.program iv.Lz_irq.Irq.timer ~now:core.Core.cycles
            ~slice
        end;
        Core.quiesce_irq core intid;
        Lz_irq.Irq.eoi iv intid;
        Core.eret_from_el1 core;
        loop ()
    | Core.Trap_el1 (Core.Ec_iabort _), _, Some f ->
        f core;
        loop ()
    | s, _, _ -> Alcotest.failf "%s: unexpected stop %a" what Core.pp_stop s
  in
  loop ();
  !ticks

let prop_fast_slow_equivalent =
  QCheck2.Test.make
    ~name:"core: fast path and superblocks are architecturally invisible"
    ~count:20
    QCheck2.Gen.(
      pair (oneofl Lz_workloads.Microbench.names) (int_range 1 500))
    (fun (name, iters) ->
      engines_agree (fun engine ->
          Lz_workloads.Microbench.run_summary ~engine ~iters name))

(* Self-modifying code: every iteration computes a fresh MOVZ
   encoding, stores it over the patch site in its own (writable,
   executable) code page — optionally followed by IC IALLU — and then
   executes it. All three engines must observe each patched
   instruction at exactly the same iteration, so the accumulated sum
   in x6 (and every counter) distinguishes any stale-decode bug. *)
let smc_observe ~iters ~with_ic engine =
  let code_va = 0x10000 in
  let base = Encoding.encode (Insn.Movz (5, 0, 0)) in
  let patch_idx = 12 in
  let program =
    [ Insn.Movz (0, iters, 0);                        (*  0 *)
      Insn.Movz (1, code_va land 0xFFFF, 0);          (*  1 *)
      Insn.Movk (1, code_va lsr 16, 16);              (*  2 *)
      Insn.Movz (7, 0xFFFF, 0);                       (*  3 *)
      Insn.Movz (9, base land 0xFFFF, 0);             (*  4 *)
      Insn.Movk (9, base lsr 16, 16);                 (*  5 *)
      Insn.And_reg (8, 0, 7);                         (*  6: loop head *)
      Insn.Lsl_imm (8, 8, 5);                         (*  7 *)
      Insn.Orr_reg (10, 9, 8);                        (*  8 *)
      Insn.Str32 (10, 1, 4 * patch_idx);              (*  9 *)
      (if with_ic then Insn.Ic_iallu else Insn.Nop);  (* 10 *)
      Insn.Nop;                                       (* 11 *)
      Insn.Movz (5, 0, 0);                            (* 12: patch site *)
      Insn.Add (6, 6, Insn.Reg 5);                    (* 13 *)
      Insn.Sub (0, 0, Insn.Imm 1);                    (* 14 *)
      Insn.Cbnz (0, 4 * (6 - 15));                    (* 15 *)
      Insn.Brk 0 ]                                    (* 16 *)
  in
  let core, pas =
    fresh_core ~engine [ (code_va, page ~w:true ~x:true, program) ]
  in
  run_to_brk "smc" core;
  Differential.observe ~pages:pas core

let prop_smc_equivalent =
  QCheck2.Test.make
    ~name:"core: self-modifying code is engine-invariant (3-way)"
    ~count:15
    QCheck2.Gen.(pair (int_range 1 200) bool)
    (fun (iters, with_ic) ->
      let o = Differential.across_engines (smc_observe ~iters ~with_ic) in
      (* sanity: the patch actually took effect at least once *)
      o.Differential.regs.(6) > 0 && o.Differential.insns > 0)

(* Preemption slices: drive each microbench under the generic timer
   with a random slice, servicing every tick harness-side, and require
   the three engines to agree bit-for-bit — interrupts must land at
   identical instruction boundaries (the interrupt-horizon guard). *)
let preempted_observe ~iters ~slice name engine =
  let env = Lz_workloads.Microbench.build ~engine ~iters name in
  let ticks = run_serviced ~slice "preempt" env.core in
  Differential.observe ~pages:env.data_pas
    ~extra:[ ("ticks", string_of_int ticks) ]
    env.core

let prop_preempt_equivalent =
  QCheck2.Test.make
    ~name:"core: preemption slices are engine-invariant (3-way)"
    ~count:20
    QCheck2.Gen.(
      triple (oneofl Lz_workloads.Microbench.names) (int_range 20 200)
        (int_range 97 2_000))
    (fun (name, iters, slice) ->
      (* a short run with a long slice may legitimately see zero ticks *)
      engines_agree (preempted_observe ~iters ~slice name))

(* ------------------------------------------------------------------ *)
(* Trace-tree properties. The superblock engine folds biased
   conditional branches into blocks with side exits; these properties
   pin down the three invariants that make that sound:

   - the horizon invariant: nothing the block former keeps inside a
     block or chains across (Straight, Cond, Chain) can move an
     interrupt-horizon input (DAIF, GIC, timer, PMU), so those inputs
     move only at Stop terminators and side exits never invalidate a
     computed horizon; and only the instructions carrying effect bit 2
     change the translation context in-block;
   - architectural invisibility under *retraining*: generated
     branch-heavy programs that flip branch bias mid-run (so trees
     form along one direction and must re-form along the other) stay
     bit-identical across slow / per-insn fast / blocks, with and
     without preemption slices (which may land inside side-exit
     stubs) and with tracing attached;
   - SMC at a side-exit target: a cross-page side-exit chain is
     revalidated against the *target* page's generation and the
     IC IALLU epoch, so patching the cold-path page severs it. *)

module Fastpath = Lz_cpu.Fastpath
module Trace = Lz_trace.Trace

let horizon_code_va = 0x10000
let horizon_data_va = 0x20000

(* One instruction of every non-system class, then the whole system
   and exception-generating space: every modelled register under MSR
   and MRS, every PSTATE field, every other system instruction. x1
   holds the mapped data address, x2 a value no horizon input or
   translation register holds. *)
let horizon_cases =
  [ Insn.Movz (3, 1, 0); Insn.Movk (3, 1, 16); Insn.Mov_reg (3, 2);
    Insn.Add (3, 2, Insn.Imm 1); Insn.Sub (3, 2, Insn.Reg 2);
    Insn.Subs (3, 2, Insn.Imm 1); Insn.And_reg (3, 2, 2);
    Insn.Orr_reg (3, 2, 2); Insn.Eor_reg (3, 2, 2); Insn.Lsl_imm (3, 2, 3);
    Insn.Lsr_imm (3, 2, 3); Insn.Nop; Insn.Ldr (3, 1, 8); Insn.Str (2, 1, 8);
    Insn.Ldrb (3, 1, 1); Insn.Strb (2, 1, 1); Insn.Ldr32 (3, 1, 4);
    Insn.Str32 (2, 1, 4); Insn.Ldr_reg (3, 1, 31); Insn.Str_reg (2, 1, 31);
    Insn.Ldtr (3, 1, 8); Insn.Sttr (2, 1, 8); Insn.Ldtrb (3, 1, 1);
    Insn.Sttrb (2, 1, 1); Insn.B 8; Insn.Bcond (Insn.NE, 8); Insn.Bl 8;
    Insn.Br 1; Insn.Blr 1; Insn.Ret 1; Insn.Cbz (2, 8); Insn.Cbnz (2, 8);
    Insn.Svc 0; Insn.Hvc 0; Insn.Smc 0; Insn.Brk 0; Insn.Eret; Insn.Isb;
    Insn.Dsb; Insn.Tlbi_vmalle1; Insn.Tlbi_aside1 2; Insn.Tlbi_vmalle1is;
    Insn.Tlbi_vae1is 2; Insn.Tlbi_aside1is 2; Insn.At_s1e1r 1;
    Insn.Dc_civac 1; Insn.Ic_iallu; Insn.Wfi; Insn.Udf 0 ]
  @ List.concat_map (fun r -> [ Insn.Msr (r, 2); Insn.Mrs (3, r) ]) Sysreg.all
  @ List.concat_map
      (fun f -> List.map (fun imm -> Insn.Msr_pstate (f, imm)) [ 0; 1; 0xF ])
      [ Insn.PAN; Insn.SPSel; Insn.DAIFSet; Insn.DAIFClr; Insn.UAO ]

(* The [irq_horizon] inputs: DAIF, the GIC CPU interface and
   distributor, the timer, and the PMU's overflow-interrupt enables. *)
let horizon_inputs (core : Core.t) =
  match (core.Core.irqc, core.Core.pmu) with
  | Some iv, Some p ->
      ( core.Core.pstate.Pstate.daif,
        Lz_irq.Gic.capture iv.Lz_irq.Irq.gic,
        Lz_irq.Timer.capture iv.Lz_irq.Irq.timer,
        Pmu.read_inten p )
  | _ -> Alcotest.fail "horizon: IRQ fabric or PMU detached"

let mmu_inputs (core : Core.t) =
  let r = Sysreg.read core.Core.sys in
  ( (r Sysreg.TTBR0_EL1, r Sysreg.TTBR1_EL1, r Sysreg.HCR_EL2,
     r Sysreg.VTTBR_EL2),
    (core.Core.pstate.Pstate.el, core.Core.pstate.Pstate.pan) )

(* Execute [insn] at EL1, after a NOP whose boundary poll settles the
   fabric, on a core whose timer is either armed far ahead with IRQs
   unmasked, or [masked] and already pending in the GIC (so that an
   acknowledging read shows). *)
let horizon_step ~masked insn =
  let data = { Pte.user = true; read_only = false; uxn = true; pxn = true;
               ng = true } in
  let core, _ =
    fresh_core ~engine:Core.Per_insn
      [ (horizon_code_va, page ~w:false ~x:true,
         [ Insn.Nop; insn; Insn.Brk 0 ]);
        (horizon_data_va, data, []) ]
  in
  Core.set_reg core 1 horizon_data_va;
  Core.set_reg core 2 0x5A5A_5A5A_5A5A;
  ignore (Core.attach_pmu core);
  let iv = Core.attach_irq core in
  Lz_irq.Irq.init iv;
  if masked then core.Core.pstate.Pstate.daif <- 2;
  Lz_irq.Timer.program iv.Lz_irq.Irq.timer ~now:core.Core.cycles
    ~slice:(if masked then 1 else 1_000_000);
  if Core.step core <> None then Alcotest.fail "horizon: NOP trapped";
  if masked then
    ignore (Lz_irq.Irq.pending iv ~now:core.Core.cycles ~pmu_line:false);
  let h0 = horizon_inputs core and m0 = mmu_inputs core in
  match Core.step core with
  | Some _ -> None (* raised: the dispatcher delivers it and re-polls *)
  | None -> Some (h0 = horizon_inputs core, m0 = mmu_inputs core)

let test_ending_horizon_pure () =
  List.iter
    (fun insn ->
      let name = Format.asprintf "%a" Insn.pp insn in
      match (Fastpath.ending_of insn, insn) with
      | Fastpath.Stop, _ -> ()
      | Fastpath.Cond _, (Insn.Bcond _ | Insn.Cbz _ | Insn.Cbnz _)
      | (Fastpath.Straight | Fastpath.Chain), _ ->
          List.iter
            (fun masked ->
              match horizon_step ~masked insn with
              | None -> ()
              | Some (horizon_kept, mmu_kept) ->
                  if not horizon_kept then
                    Alcotest.failf "%s moved an interrupt-horizon input" name;
                  if Fastpath.eff_of insn land 4 = 0 && not mmu_kept then
                    Alcotest.failf
                      "%s changed the translation context without effect \
                       bit 2"
                      name)
            [ false; true ]
      | Fastpath.Cond _, _ ->
          Alcotest.failf "%s is Cond but not a foldable branch" name)
    horizon_cases;
  (* The call gate's MSR TTBR0_EL1, ISB and MRS stay inside its block. *)
  List.iter
    (fun insn ->
      Alcotest.(check bool)
        (Format.asprintf "%a in-block" Insn.pp insn)
        true
        (Fastpath.ending_of insn = Fastpath.Straight))
    [ Insn.Msr (Sysreg.TTBR0_EL1, 12); Insn.Isb;
      Insn.Mrs (12, Sysreg.TTBR0_EL1) ]

(* A tiny two-pass assembler with symbolic labels, so generated
   branchy programs don't hand-compute byte offsets. *)
type asm =
  | Lbl of int
  | Ins of Insn.t
  | Bc of Insn.cond * int
  | Cz of int * int
  | Cnz of int * int
  | Jmp of int

let assemble items =
  let n_labels =
    List.fold_left
      (fun a -> function Lbl l -> max a (l + 1) | _ -> a)
      0 items
  in
  let addr = Array.make (max n_labels 1) 0 in
  let idx = ref 0 in
  List.iter (function Lbl l -> addr.(l) <- !idx | _ -> incr idx) items;
  let out = ref [] and i = ref 0 in
  List.iter
    (fun it ->
      let off l = 4 * (addr.(l) - !i) in
      (match it with
      | Lbl _ -> ()
      | Ins insn -> out := insn :: !out
      | Bc (c, l) -> out := Insn.Bcond (c, off l) :: !out
      | Cz (r, l) -> out := Insn.Cbz (r, off l) :: !out
      | Cnz (r, l) -> out := Insn.Cbnz (r, off l) :: !out
      | Jmp l -> out := Insn.B (off l) :: !out);
      match it with Lbl _ -> () | _ -> incr i)
    items;
  List.rev !out

(* Branch-heavy loop bodies whose bias *changes* mid-run. [Phase]
   compares the countdown register against a flip point, so the branch
   goes one way for the first part of the run and permanently flips;
   [MaskZ] tests masked bits of the counter, giving periodic cold
   directions (the nginx pattern). Both arms do distinct arithmetic
   and memory traffic so any stale-tree bug lands in the summary. *)
type seg =
  | Phase of bool * int * int * int  (* ge?, flip point, k_then, k_else *)
  | MaskZ of bool * int * int * int  (* cbz?, mask, k_then, k_else *)

let branchy_code_va = 0x10000
let branchy_data_va = 0x20000

let branchy_items segs iters =
  let next = ref 1 in
  let seg_items s =
    let le = !next and lj = !next + 1 in
    next := !next + 2;
    match s with
    | Phase (ge, flip, k1, k2) ->
        [ Ins (Insn.Subs (9, 0, Insn.Imm flip));
          Bc ((if ge then Insn.GE else Insn.LT), le);
          Ins (Insn.Add (5, 5, Insn.Imm k1));
          Ins (Insn.Str (5, 1, 8));
          Jmp lj;
          Lbl le;
          Ins (Insn.Add (6, 6, Insn.Imm k2));
          Ins (Insn.Ldr (4, 1, 0));
          Lbl lj ]
    | MaskZ (z, mask, k1, k2) ->
        [ Ins (Insn.Movz (7, mask, 0));
          Ins (Insn.And_reg (8, 0, 7));
          (if z then Cz (8, le) else Cnz (8, le));
          Ins (Insn.Add (5, 5, Insn.Imm k1));
          Jmp lj;
          Lbl le;
          Ins (Insn.Add (6, 6, Insn.Imm k2));
          Ins (Insn.Str (6, 1, 16));
          Lbl lj ]
  in
  [ Ins (Insn.Movz (0, iters, 0));
    Ins (Insn.Movz (1, branchy_data_va land 0xFFFF, 0));
    Ins (Insn.Movk (1, branchy_data_va lsr 16, 16));
    Lbl 0 ]
  @ List.concat_map seg_items segs
  @ [ Ins (Insn.Sub (0, 0, Insn.Imm 1)); Cnz (0, 0); Ins (Insn.Brk 0) ]

let seg_gen =
  QCheck2.Gen.(
    oneof
      [ map4
          (fun ge flip k1 k2 -> Phase (ge, flip, k1 + 1, k2 + 1))
          bool (int_bound 400) (int_bound 62) (int_bound 62);
        map4
          (fun z m k1 k2 -> MaskZ (z, [| 1; 3; 7; 15 |].(m), k1 + 1, k2 + 1))
          bool (int_bound 3) (int_bound 62) (int_bound 62) ])

let branchy_env ?tracer ~engine prog =
  fresh_core ?tracer ~engine
    [ (branchy_code_va, page ~w:false ~x:true, prog);
      (branchy_data_va, page ~w:true ~x:false, []) ]

let branchy_observe ?tracer prog engine =
  let core, pas = branchy_env ?tracer ~engine prog in
  run_to_brk "branchy" core;
  Differential.observe ~pages:pas core

let prop_branchy_equivalent =
  QCheck2.Test.make
    ~name:"core: trace trees are invisible under branch-bias flips (3-way)"
    ~count:40
    QCheck2.Gen.(pair (list_size (int_range 1 4) seg_gen) (int_range 1 400))
    (fun (segs, iters) ->
      engines_agree (branchy_observe (assemble (branchy_items segs iters))))

(* Preemption slices landing anywhere — including inside a side-exit
   stub, between a block's early exit and the dispatcher's re-entry —
   must deliver the IRQ at the identical instruction boundary as the
   per-insn engines (the PR 4 transparency property, extended to
   trace trees over the branchy generator). *)
let branchy_preempted_observe ~slice prog engine =
  let core, pas = branchy_env ~engine prog in
  let ticks = run_serviced ~slice "branchy preempt" core in
  Differential.observe ~pages:pas ~extra:[ ("ticks", string_of_int ticks) ] core

let prop_branchy_preempt_equivalent =
  QCheck2.Test.make
    ~name:"core: preemption inside side-exit stubs is engine-invariant"
    ~count:20
    QCheck2.Gen.(
      triple (list_size (int_range 1 3) seg_gen) (int_range 20 300)
        (int_range 97 1500))
    (fun (segs, iters, slice) ->
      let prog = assemble (branchy_items segs iters) in
      engines_agree (branchy_preempted_observe ~slice prog))

(* Block-aware traced dispatch: with PC markers planted at random
   instructions of the code page, every engine must emit the exact
   event stream (same payloads, same order, same cycle stamps) as the
   slow one, on top of an identical observation. *)
let prop_branchy_traced_equivalent =
  QCheck2.Test.make
    ~name:"core: block-aware tracing emits identical event streams"
    ~count:25
    QCheck2.Gen.(
      triple (list_size (int_range 1 3) seg_gen) (int_range 1 300)
        (list_size (int_range 1 4) (int_bound 40)))
    (fun (segs, iters, marks) ->
      let prog = assemble (branchy_items segs iters) in
      let n = List.length prog in
      engines_agree (fun engine ->
          let tr = Trace.create ~capacity:100_000 () in
          List.iteri
            (fun i idx ->
              Trace.add_marker tr
                ~pc:(branchy_code_va + (4 * (idx mod n)))
                (Trace.Syscall { nr = i }))
            marks;
          let o = branchy_observe ~tracer:tr prog engine in
          let events = List.map Trace.event_to_json (Trace.events tr) in
          { o with
            Differential.extra = [ ("events", String.concat "\n" events) ] }))

(* SMC at a cross-page side-exit target. Page A's loop folds a
   mostly-not-taken CBZ whose cold direction branches onto page B;
   page B patches its own first instruction (the one the side-exit
   chain would re-enter) with a value derived from the live counter,
   optionally IC IALLU, and jumps back. A side-exit chain memo that
   skips revalidating the *target* page's generation (or the IALLU
   epoch) replays the stale decode and shifts the accumulator. *)
let sx_smc_observe ~iters ~with_ic engine =
  let page_a = 0x10000 and page_b = 0x11000 in
  let base = Encoding.encode (Insn.Movz (5, 0, 0)) in
  let prog_a =
    [ Insn.Movz (0, iters, 0);                      (*  0 *)
      Insn.Movz (1, page_b land 0xFFFF, 0);         (*  1 *)
      Insn.Movk (1, page_b lsr 16, 16);             (*  2 *)
      Insn.Movz (9, base land 0xFFFF, 0);           (*  3 *)
      Insn.Movk (9, base lsr 16, 16);               (*  4 *)
      Insn.Movz (7, 3, 0);                          (*  5 *)
      Insn.And_reg (8, 0, 7);                       (*  6: loop head *)
      Insn.Cbz (8, page_b - (page_a + (4 * 7)));    (*  7: cold, cross-page *)
      Insn.Add (6, 6, Insn.Reg 5);                  (*  8: cont *)
      Insn.Sub (0, 0, Insn.Imm 1);                  (*  9 *)
      Insn.Cbnz (0, 4 * (6 - 10));                  (* 10 *)
      Insn.Brk 0 ]                                  (* 11 *)
  in
  let prog_b =
    [ Insn.Movz (5, 0, 0);                          (* b0: patch site *)
      Insn.Movz (11, 0xFF, 0);                      (* b1 *)
      Insn.And_reg (12, 0, 11);                     (* b2 *)
      Insn.Lsl_imm (12, 12, 5);                     (* b3 *)
      Insn.Orr_reg (12, 9, 12);                     (* b4 *)
      Insn.Str32 (12, 1, 0);                        (* b5: patch b0 *)
      (if with_ic then Insn.Ic_iallu else Insn.Nop);(* b6 *)
      Insn.B (page_a + (4 * 8) - (page_b + (4 * 7))) ]  (* b7: back to cont *)
  in
  let wx = page ~w:true ~x:true in
  let core, pas =
    fresh_core ~engine [ (page_a, wx, prog_a); (page_b, wx, prog_b) ]
  in
  run_to_brk "sx smc" core;
  if engine = Core.Blocks && iters >= 64 then begin
    let st = Fastpath.stats core.Core.fp in
    if st.Fastpath.folds = 0 || st.Fastpath.side_exits = 0 then
      Alcotest.failf
        "sx smc: expected folded branches with side exits (entries=%d \
         builds=%d hits=%d folds=%d side_exits=%d retrains=%d iters=%d \
         ic=%b)"
        st.Fastpath.blk_entries st.Fastpath.blk_builds st.Fastpath.blk_hits
        st.Fastpath.folds st.Fastpath.side_exits st.Fastpath.retrains iters
        with_ic
  end;
  Differential.observe ~pages:pas core

let prop_sx_smc_equivalent =
  QCheck2.Test.make
    ~name:"core: SMC at a cross-page side-exit target severs the chain"
    ~count:15
    QCheck2.Gen.(pair (int_range 8 200) bool)
    (fun (iters, with_ic) ->
      let o = Differential.across_engines (sx_smc_observe ~iters ~with_ic) in
      o.Differential.regs.(6) > 0)

(* In-block translation changes. MSR TTBR0_EL1 does not end a block:
   the executor redoes the next fetch for real and leaves the block
   unless it maps to the next instruction's frame. Generated loops in
   the TTBR0 half switch, mid-block, to a root that maps the code page
   to the same frame, to a mirror frame whose code differs only in its
   constants, or to nothing (an instruction abort the harness resolves
   by switching back), follow the switch with a store into the
   executing code page, a TLBI or an IC IALLU, and switch back. *)
type xl_target = Xl_same | Xl_other | Xl_unmapped
type xl_after = Xl_plain | Xl_store | Xl_tlbi | Xl_ic

let xl_code_va = 0x10000
let xl_data_va = 0x20000

(* The loop, as laid out in both code frames: [mirror] shifts only
   the constants that the x6/x7 accumulators add, so a block that
   runs on in the wrong frame shows in them. x20-x23 hold the TTBR0
   values of the code root and of the three targets. *)
let xl_program ~ttbrs ~mirror segs iters =
  let b = Builder.create ~base:xl_code_va in
  List.iteri
    (fun i v ->
      Builder.mov_imm64 b (20 + i) v;
      Builder.emit b [ Insn.Movk (20 + i, v lsr 48, 48) ])
    ttbrs;
  Builder.mov_imm64 b 1 xl_data_va;
  Builder.mov_imm64 b 11 xl_code_va;
  Builder.mov_imm64 b 9 (Encoding.encode (Insn.Movz (13, 0, 0)));
  Builder.emit b [ Insn.Movz (0, iters, 0); Insn.Movz (12, 0xFF, 0) ];
  let loop = Builder.here b in
  List.iteri
    (fun j (target, after) ->
      let reg =
        match target with Xl_same -> 21 | Xl_other -> 22 | Xl_unmapped -> 23
      in
      Builder.emit b
        [ Insn.Add (5, 5, Insn.Imm (j + 1));
          Insn.Ldr (4, 1, 0);
          Insn.Msr (Sysreg.TTBR0_EL1, reg) ];
      (match after with
      | Xl_plain -> ()
      | Xl_store ->
          (* Patch the MOVZ right after the store with the counter. *)
          Builder.emit b
            [ Insn.And_reg (8, 0, 12);
              Insn.Lsl_imm (8, 8, 5);
              Insn.Orr_reg (10, 9, 8) ];
          Builder.emit b
            [ Insn.Str32 (10, 11, Builder.here b + 4 - xl_code_va);
              Insn.Movz (13, 0, 0);
              Insn.Add (14, 14, Insn.Reg 13) ]
      | Xl_tlbi -> Builder.emit b [ Insn.Tlbi_vmalle1 ]
      | Xl_ic -> Builder.emit b [ Insn.Ic_iallu ]);
      Builder.emit b
        [ Insn.Add (6, 6, Insn.Imm (j + 1 + (100 * mirror)));
          Insn.Str (6, 1, 8);
          Insn.Msr (Sysreg.TTBR0_EL1, 20);
          Insn.Add (7, 7, Insn.Imm (j + 1 + (7 * mirror))) ])
    segs;
  Builder.emit b [ Insn.Sub (0, 0, Insn.Imm 1) ];
  Builder.emit b [ Insn.Cbnz (0, loop - Builder.here b); Insn.Brk 0 ];
  fst (Builder.finish b)

let xl_observe ~segs ~iters ~slice ~traced engine =
  let phys = Phys.create () in
  let frame () = Phys.alloc_frame phys in
  let code_a = frame () and code_b = frame () and data = frame () in
  let roots = List.init 4 (fun _ -> Stage1.create_root phys) in
  let ttbrs =
    List.mapi (fun i root -> Mmu.ttbr_value ~root ~asid:(i + 1)) roots
  in
  let wx = page ~w:true ~x:true in
  List.iteri
    (fun i root ->
      Stage1.map_page phys ~root ~va:xl_data_va ~pa:data
        (page ~w:true ~x:false);
      match i with
      | 0 | 1 -> Stage1.map_page phys ~root ~va:xl_code_va ~pa:code_a wx
      | 2 -> Stage1.map_page phys ~root ~va:xl_code_va ~pa:code_b wx
      | _ -> ())
    roots;
  List.iter
    (fun (pa, mirror) ->
      List.iteri
        (fun i insn ->
          Phys.write32 phys (pa + (4 * i)) (Encoding.encode insn))
        (xl_program ~ttbrs ~mirror segs iters))
    [ (code_a, 0); (code_b, 1) ];
  let core =
    Core.create ~engine phys (Tlb.create ()) Lz_cpu.Cost_model.cortex_a55
      Pstate.EL1
  in
  let tr = if traced then Some (Trace.create ~capacity:100_000 ()) else None in
  Core.set_tracer core tr;
  Sysreg.write core.Core.sys Sysreg.TTBR0_EL1 (List.hd ttbrs);
  core.Core.pc <- xl_code_va;
  let aborts = ref 0 in
  let on_iabort core =
    incr aborts;
    Sysreg.write core.Core.sys Sysreg.TTBR0_EL1 (List.hd ttbrs);
    Core.eret_from_el1 core
  in
  let ticks = run_serviced ?slice ~on_iabort "xl" core in
  let events =
    match tr with
    | Some tr -> List.map Trace.event_to_json (Trace.events tr)
    | None -> []
  in
  Differential.observe ~pages:[ code_a; code_b; data ]
    ~extra:
      [ ("ticks", string_of_int ticks); ("aborts", string_of_int !aborts);
        ("events", String.concat "\n" events) ]
    core

let prop_xl_equivalent =
  QCheck2.Test.make
    ~name:"core: in-block translation changes are engine-invariant (3-way)"
    ~count:40
    QCheck2.Gen.(
      quad
        (list_size (int_range 1 4)
           (pair
              (oneofl [ Xl_same; Xl_other; Xl_unmapped ])
              (oneofl [ Xl_plain; Xl_store; Xl_tlbi; Xl_ic ])))
        (int_range 1 60)
        (opt (int_range 97 1500))
        bool)
    (fun (segs, iters, slice, traced) ->
      engines_agree (xl_observe ~segs ~iters ~slice ~traced))

(* ------------------------------------------------------------------ *)
(* Demand paging: a translation fault installs the one faulting page.
   For any random access pattern over a multi-page VMA, running with
   the VMA demand-faulted must produce the same exit code and final
   registers as running with it populated up front, and afterwards
   exactly the touched pages are resident — no fault clusters. *)

let df_data_va = 0x600000
let df_pages = 12

let run_demand_fault_case ~populated probes =
  let machine = Lz_kernel.Machine.create () in
  let kernel = Lz_kernel.Kernel.create machine Lz_kernel.Kernel.Host_vhe in
  let proc = Lz_kernel.Kernel.create_process kernel in
  ignore (Lz_kernel.Kernel.map_anon kernel proc ~at:(stack_va - 0x10000)
            ~len:0x10000 Lz_kernel.Vma.rw);
  ignore (Lz_kernel.Kernel.map_anon kernel proc ~at:df_data_va
            ~len:(df_pages * 4096) Lz_kernel.Vma.rw);
  if populated then
    Lz_kernel.Kernel.populate kernel proc ~start:df_data_va
      ~len:(df_pages * 4096);
  let addr_of idx =
    [ Insn.Movz (0, 0x60, 0); Insn.Lsl_imm (0, 0, 16);
      Insn.Movz (1, idx * 4096, 0); Insn.Add (0, 0, Insn.Reg 1) ]
  in
  let writes =
    List.concat_map
      (fun (idx, v) -> addr_of idx @ [ Insn.Movz (2, v, 0); Insn.Str (2, 0, 0) ])
      probes
  in
  let reads =
    List.concat_map
      (fun (idx, _) ->
        addr_of idx @ [ Insn.Ldr (3, 0, 0); Insn.Add (4, 4, Insn.Reg 3) ])
      probes
  in
  let prog =
    writes @ reads
    @ [ Insn.Movz (8, Lz_kernel.Kernel.Nr.exit, 0); Insn.Mov_reg (0, 4);
        Insn.Svc 0 ]
  in
  Lz_kernel.Kernel.load_program kernel proc ~va:code_va prog;
  let core =
    Lz_kernel.Kernel.new_user_core kernel proc ~entry:code_va ~sp:stack_va
  in
  let outcome = Lz_kernel.Kernel.run kernel proc core in
  let resident =
    List.filter
      (fun idx ->
        Result.is_ok
          (Stage1.walk machine.Lz_kernel.Machine.phys
             ~root:proc.Lz_kernel.Proc.root ~va:(df_data_va + (idx * 4096))))
      (List.init df_pages Fun.id)
  in
  (outcome, Array.copy core.Lz_cpu.Core.regs, resident)

let prop_demand_fault_one_page =
  QCheck2.Test.make
    ~name:"kernel: demand paging installs exactly the touched pages"
    ~count:60
    ~print:(fun probes ->
      Printf.sprintf "probes=[%s]"
        (String.concat "; "
           (List.map (fun (i, v) -> Printf.sprintf "(%d,%d)" i v) probes)))
    QCheck2.Gen.(
      list_size (int_range 1 10) (pair (int_bound (df_pages - 1)) (int_bound 50)))
    (fun probes ->
      let o1, r1, touched = run_demand_fault_case ~populated:false probes in
      let o2, r2, _ = run_demand_fault_case ~populated:true probes in
      let expected = List.sort_uniq compare (List.map fst probes) in
      o1 = o2 && r1 = r2 && touched = expected)

(* ------------------------------------------------------------------ *)
(* ASID recycling transparency *)

(* The same tenant-churn script runs on two modules: one with a
   deliberately tiny ASID space — generation rollovers and
   whole-context flushes fire mid-churn — and a full 14-bit oracle
   where every table gets a fresh ASID. Recycling must be
   architecturally invisible: outcome, pc, stack pointers, PSTATE,
   instruction count, zone data and final registers agree
   bit-for-bit. Two exclusions, both inherent to what recycling is:
   the ASID field (bits 48+) is masked out of registers, because gate
   scratch registers legitimately hold the TTBR value just installed
   and its ASID differs by construction; cycles and TLB statistics are
   masked, because rollover flushes legitimately cost refills. Runs
   across every engine and under preemption slices. *)

let asid_field_mask = lnot (0x3FFF lsl Mmu.asid_shift)

let churn_observe ~asid_bits ~engine ~churn ~slice =
  let machine = Lz_kernel.Machine.create () in
  let kernel = Lz_kernel.Kernel.create machine Lz_kernel.Kernel.Host_vhe in
  let proc = Lz_kernel.Kernel.create_process kernel in
  ignore (Lz_kernel.Kernel.map_anon kernel proc ~at:(stack_va - 0x10000)
            ~len:0x10000 Lz_kernel.Vma.rw);
  ignore (Lz_kernel.Kernel.map_anon kernel proc ~at:domains_va ~len:0x2000
            Lz_kernel.Vma.rw);
  let t =
    Kmod.enter ~asid_bits ~allow_scalable:true
      ~san_mode:Sanitizer.Ttbr_mode ~vmid:0x200 ~entry:code_va ~sp:stack_va
      kernel proc
  in
  let core = t.Kmod.core in
  Core.set_engine core engine;
  (* A long-lived tenant parked across the churn, and one allocated
     after it — the latter's table carries a recycled ASID in the
     small space and a fresh one in the oracle. *)
  let survivor = Api.lz_alloc t in
  Api.lz_map_gate_pgt t ~pgt:survivor ~gate:0;
  Api.lz_prot t ~addr:domains_va ~len:4096 ~pgt:survivor
    ~perm:(Perm.read lor Perm.write);
  for _ = 1 to churn do
    let id = Api.lz_alloc t in
    Api.lz_free t id
  done;
  let late = Api.lz_alloc t in
  Api.lz_map_gate_pgt t ~pgt:late ~gate:1;
  Api.lz_prot t ~addr:(domains_va + 4096) ~len:4096 ~pgt:late
    ~perm:(Perm.read lor Perm.write);
  if slice > 0 then begin
    let iv = Core.attach_irq core in
    Lz_irq.Irq.init iv;
    t.Kmod.on_irq <-
      Some
        (fun core intid ->
          if intid = Lz_irq.Gic.ppi_el1_timer then
            Lz_irq.Timer.program iv.Lz_irq.Irq.timer ~now:core.Core.cycles
              ~slice);
    Lz_irq.Timer.program iv.Lz_irq.Irq.timer ~now:core.Core.cycles ~slice
  end;
  let b = Builder.create ~base:code_va in
  Builder.switch_gate b ~gate:0;
  Builder.mov_imm64 b 0 domains_va;
  Builder.emit b
    (List.concat
       (List.init 24 (fun i ->
            [ Insn.Movz (1, 100 + i, 0); Insn.Str (1, 0, 8 * (i mod 8));
              Insn.Ldr (2, 0, 8 * (i mod 8)) ])));
  Builder.switch_gate b ~gate:1;
  Builder.mov_imm64 b 0 (domains_va + 4096);
  Builder.emit b
    (List.concat
       (List.init 8 (fun i ->
            [ Insn.Movz (3, 500 + i, 0); Insn.Str (3, 0, 8 * i);
              Insn.Ldr (4, 0, 8 * i) ])));
  Builder.emit b [ Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  (* The program retires 172 instructions. A budget far above that
     bounds the draws whose timer slice is under the IRQ round trip
     (about 105 cycles): they livelock after 2 instructions, and the
     default budget of 50M zero-progress traps took minutes to end
     them, with the same observation. *)
  let outcome =
    Format.asprintf "%a" Kmod.pp_outcome (Kmod.run ~max_insns:100_000 t)
  in
  let zones =
    Lz_kernel.Kernel.read_user kernel proc ~va:domains_va ~len:0x2000
  in
  let o =
    Differential.observe core
      ~extra:
        [ ("outcome", outcome); ("zones", Digest.to_hex (Digest.bytes zones)) ]
  in
  { o with
    Differential.regs = Array.map (fun r -> r land asid_field_mask) o.regs;
    cycles = 0; tlb_hits = 0; tlb_misses = 0 }

let prop_asid_recycling_transparent =
  QCheck2.Test.make
    ~name:"lightzone: ASID recycling is architecturally invisible"
    ~count:6
    ~print:(fun (churn, engine, slice) ->
      Printf.sprintf "churn=%d engine=%s slice=%d" churn
        (Core.engine_name engine) slice)
    QCheck2.Gen.(
      triple (int_range 20 120) (oneofl Core.engines)
        (* 53 livelocks under the IRQ round trip until the budget; 113,
           just above it, preempts after nearly every instruction. *)
        (oneofl [ 0; 0; 53; 113; 131 ]))
    (fun (churn, engine, slice) ->
      let small = churn_observe ~asid_bits:4 ~engine ~churn ~slice in
      let oracle = churn_observe ~asid_bits:14 ~engine ~churn ~slice in
      match Differential.diff small oracle with
      | None -> true
      | Some d -> QCheck2.Test.fail_report d)

let () =
  Alcotest.run "lz_props"
    [ ( "sanitizer",
        [ q prop_sanitizer_blocks_ttbr_writes;
          q prop_sanitizer_blocks_eret;
          q prop_sanitizer_pan_mode_blocks_unpriv;
          q prop_sanitizer_allows_plain_code;
          q prop_scan_page_matches_classify ] );
      ( "mmu",
        [ q prop_pan_only_removes;
          q prop_read_only_blocks_writes;
          q prop_el0_needs_user;
          q prop_el1_never_executes_user_pages ] );
      ( "stage1", [ q prop_s1_model_agreement ] );
      ( "int_table", [ q prop_int_table_model ] );
      ( "tlb", [ q prop_tlb_transparent; q prop_tlb_reference_model ] );
      ( "fastpath",
        [ q prop_fast_slow_equivalent;
          q prop_smc_equivalent;
          q prop_preempt_equivalent ] );
      ( "trace-trees",
        [ Alcotest.test_case
            "fastpath: only Stop terminators can move the interrupt horizon"
            `Quick test_ending_horizon_pure;
          q prop_branchy_equivalent;
          q prop_branchy_preempt_equivalent;
          q prop_branchy_traced_equivalent;
          q prop_sx_smc_equivalent;
          q prop_xl_equivalent ] );
      ( "demand-fault", [ q prop_demand_fault_one_page ] );
      ( "aes", [ q prop_aes_roundtrip; q prop_aes_cbc_roundtrip ] );
      ( "lightzone",
        [ q prop_lz_policy; q prop_asid_recycling_transparent ] ) ]
