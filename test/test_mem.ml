(* Tests for physical memory, page tables, the TLB, and the combined
   MMU (including two-stage walks and PAN semantics). *)

open Lz_arm
open Lz_mem

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let attrs ?(user = false) ?(ro = false) ?(uxn = true) ?(pxn = false)
    ?(ng = true) () =
  { Pte.user; read_only = ro; uxn; pxn; ng }

let rw = Stage2.{ read = true; write = true; exec = false }
let rx = Stage2.{ read = true; write = false; exec = true }
let ro_perms = Stage2.{ read = true; write = false; exec = false }

(* ------------------------------------------------------------------ *)
(* Phys *)

let test_phys_rw () =
  let p = Phys.create () in
  Phys.write64 p 0x1000 0x1122334455667788;
  check_int "read64" 0x1122334455667788 (Phys.read64 p 0x1000);
  check_int "read8" 0x88 (Phys.read8 p 0x1000);
  check_int "read8 hi" 0x11 (Phys.read8 p 0x1007);
  Phys.write32 p 0x2000 0xCAFEBABE;
  check_int "read32" 0xCAFEBABE (Phys.read32 p 0x2000)

let test_phys_cross_page () =
  let p = Phys.create () in
  (* Straddle a frame boundary. *)
  Phys.write64 p 0x1FFC 0x0123456789ABCDEF;
  check_int "cross-page read" 0x0123456789ABCDEF (Phys.read64 p 0x1FFC);
  let b = Bytes.of_string "hello, world" in
  Phys.write_bytes p 0x2FFA b;
  Alcotest.(check string)
    "bytes straddle" "hello, world"
    (Bytes.to_string (Phys.read_bytes p 0x2FFA 12))

let test_phys_alloc () =
  let p = Phys.create () in
  let a = Phys.alloc_frame p in
  let b = Phys.alloc_frame p in
  check_bool "distinct" true (a <> b);
  check_bool "aligned" true (Bits.is_aligned a 4096);
  check_int "two handed out" 2 (Phys.allocated_frames p);
  Phys.write64 p a 99;
  Phys.free_frame p a;
  check_int "freed" 1 (Phys.allocated_frames p);
  let c = Phys.alloc_frame p in
  check_int "recycled" a c;
  check_int "zeroed on free" 0 (Phys.read64 p c)

let test_phys_contiguous () =
  let p = Phys.create () in
  let a = Phys.alloc_frames p 4 in
  check_bool "aligned" true (Bits.is_aligned a 4096);
  Phys.write8 p (a + (3 * 4096)) 7;
  check_int "last frame usable" 7 (Phys.read8 p (a + (3 * 4096)))

(* ------------------------------------------------------------------ *)
(* Pte *)

let test_pte_s1 () =
  let a = attrs ~user:true ~ro:true ~uxn:true ~pxn:true ~ng:true () in
  let pte = Pte.make_s1_page ~pa:0xABC000 a in
  check_bool "valid" true (Pte.valid pte);
  check_int "addr" 0xABC000 (Pte.out_addr pte);
  let a' = Pte.s1_attrs pte in
  check_bool "user" true a'.user;
  check_bool "ro" true a'.read_only;
  check_bool "uxn" true a'.uxn;
  check_bool "pxn" true a'.pxn;
  check_bool "ng" true a'.ng

let test_pte_attr_rewrite () =
  let pte = Pte.make_s1_page ~pa:0x5000 (attrs ()) in
  let pte' = Pte.with_s1_attrs pte (attrs ~user:true ()) in
  check_int "addr preserved" 0x5000 (Pte.out_addr pte');
  check_bool "user now" true (Pte.s1_attrs pte').user

let test_pte_s2 () =
  let pte = Pte.make_s2_page ~pa:0x7000 ~read:true ~write:false ~exec:true in
  check_bool "r" true (Pte.s2_read pte);
  check_bool "w" false (Pte.s2_write pte);
  check_bool "x" true (Pte.s2_exec pte)

let test_pte_table () =
  let t = Pte.make_s1_table ~pa:0x9000 in
  check_bool "is table at 0" true (Pte.is_table ~level:0 t);
  check_bool "not table at 3" false (Pte.is_table ~level:3 t)

(* ------------------------------------------------------------------ *)
(* Stage1 *)

let test_s1_map_walk () =
  let p = Phys.create () in
  let root = Stage1.create_root p in
  let frame = Phys.alloc_frame p in
  Stage1.map_page p ~root ~va:0x400000 ~pa:frame (attrs ());
  (match Stage1.walk p ~root ~va:0x400123 with
  | Ok w ->
      check_int "pa" (frame lor 0x123) w.pa;
      check_int "level" 3 w.level;
      check_int "page size" 4096 w.page_bytes
  | Error _ -> Alcotest.fail "expected hit");
  (* 0x999000 shares L0/L1 tables with 0x400000 but not the L2 entry. *)
  (match Stage1.walk p ~root ~va:0x999000 with
  | Ok _ -> Alcotest.fail "expected fault"
  | Error e -> check_int "fault level 2" 2 e.fault_level);
  (* A distant VA misses already at level 0. *)
  match Stage1.walk p ~root ~va:0x8000000000 with
  | Ok _ -> Alcotest.fail "expected fault"
  | Error e -> check_int "fault level 0" 0 e.fault_level

let test_s1_block () =
  let p = Phys.create () in
  let root = Stage1.create_root p in
  let m2 = 2 * 1024 * 1024 in
  let pa = Phys.alloc_frames p 512 in
  (* 2 MiB blocks need 2 MiB-aligned PAs; waste a bit to align. *)
  let pa = (pa + m2 - 1) / m2 * m2 in
  Stage1.map_block_2m p ~root ~va:(4 * m2) ~pa (attrs ());
  match Stage1.walk p ~root ~va:((4 * m2) + 0x12345) with
  | Ok w ->
      check_int "pa" (pa + 0x12345) w.pa;
      check_int "level 2" 2 w.level;
      check_int "2MiB" m2 w.page_bytes
  | Error _ -> Alcotest.fail "expected block hit"

let test_s1_unmap_and_attrs () =
  let p = Phys.create () in
  let root = Stage1.create_root p in
  Stage1.map_page p ~root ~va:0x1000 ~pa:(Phys.alloc_frame p) (attrs ());
  check_bool "set_attrs ok" true
    (Stage1.set_attrs p ~root ~va:0x1000 (attrs ~user:true ()));
  (match Stage1.walk p ~root ~va:0x1000 with
  | Ok w -> check_bool "user bit" true w.attrs.user
  | Error _ -> Alcotest.fail "mapped");
  Stage1.unmap p ~root ~va:0x1000;
  check_bool "gone" true (Result.is_error (Stage1.walk p ~root ~va:0x1000));
  check_bool "set_attrs on unmapped" false
    (Stage1.set_attrs p ~root ~va:0x1000 (attrs ()))

let test_s1_iter_and_tables () =
  let p = Phys.create () in
  let root = Stage1.create_root p in
  let vas = [ 0x1000; 0x2000; 0x40000000; 0x7F0000000000 ] in
  List.iter
    (fun va -> Stage1.map_page p ~root ~va ~pa:(Phys.alloc_frame p) (attrs ()))
    vas;
  let seen = ref [] in
  Stage1.iter_pages p ~root (fun ~va ~pte:_ ~level:_ -> seen := va :: !seen);
  check_int "all leaves" (List.length vas) (List.length !seen);
  List.iter
    (fun va -> check_bool "va found" true (List.mem va !seen))
    vas;
  (* 0x1000/0x2000 share all tables (root,L1,L2,L3 = 4); 0x40000000
     shares root+L1 and adds L2+L3 (2); 0x7F0000000000 adds its own
     L1+L2+L3 chain (3). Total 9. *)
  check_int "table count" 9 (List.length (Stage1.table_pages p ~root))

let test_s1_dup_transform () =
  let p = Phys.create () in
  let root = Stage1.create_root p in
  Stage1.map_page p ~root ~va:0x1000 ~pa:0x10000
    (attrs ~user:true ~uxn:false ());
  Stage1.map_page p ~root ~va:0x2000 ~pa:0x11000 (attrs ~user:true ());
  (* EL0->EL1 transformation: exec permission for user becomes exec
     for privileged (UXN -> PXN), and drop the second page. *)
  let root' =
    Stage1.dup p ~root ~transform:(fun ~va pte ->
        if va = 0x2000 then None
        else
          let a = Pte.s1_attrs pte in
          Some
            (Pte.with_s1_attrs pte
               { a with user = false; pxn = a.uxn; uxn = true }))
  in
  (match Stage1.walk p ~root:root' ~va:0x1000 with
  | Ok w ->
      check_bool "kernel page now" false w.attrs.user;
      check_bool "pxn tracks old uxn" false w.attrs.pxn
  | Error _ -> Alcotest.fail "dup kept va 0x1000");
  check_bool "dropped" true
    (Result.is_error (Stage1.walk p ~root:root' ~va:0x2000));
  (* Original is untouched. *)
  match Stage1.walk p ~root ~va:0x2000 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "original intact"

let test_s1_destroy_frees () =
  let p = Phys.create () in
  let before = Phys.allocated_frames p in
  let root = Stage1.create_root p in
  Stage1.map_page p ~root ~va:0x1000 ~pa:0x50000 (attrs ());
  Stage1.destroy p ~root;
  check_int "frames back" before (Phys.allocated_frames p)

(* ------------------------------------------------------------------ *)
(* Stage2 *)

let test_s2_map_walk () =
  let p = Phys.create () in
  let root = Stage2.create_root p in
  Stage2.map_page p ~root ~ipa:0x8000 ~pa:0x123000 rw;
  (match Stage2.walk p ~root ~ipa:0x8FF0 with
  | Ok w ->
      check_int "pa" 0x123FF0 w.pa;
      check_bool "w" true w.perms.write;
      check_bool "x" false w.perms.exec
  | Error _ -> Alcotest.fail "expected hit");
  match Stage2.walk p ~root ~ipa:0x40000000 with
  | Error e -> check_int "fault level 1" 1 e.fault_level
  | Ok _ -> Alcotest.fail "expected fault"

let test_s2_set_perms () =
  let p = Phys.create () in
  let root = Stage2.create_root p in
  Stage2.map_page p ~root ~ipa:0x8000 ~pa:0x123000 rw;
  check_bool "ok" true (Stage2.set_perms p ~root ~ipa:0x8000 ro_perms);
  match Stage2.walk p ~root ~ipa:0x8000 with
  | Ok w -> check_bool "now ro" false w.perms.write
  | Error _ -> Alcotest.fail "still mapped"

let test_s2_identity_range () =
  let p = Phys.create () in
  let root = Stage2.create_root p in
  Stage2.map_identity_range p ~root ~ipa:0x10000 ~len:(3 * 4096) rx;
  match Stage2.walk p ~root ~ipa:0x12000 with
  | Ok w -> check_int "identity" 0x12000 w.pa
  | Error _ -> Alcotest.fail "mapped"

(* ------------------------------------------------------------------ *)
(* Tlb *)

let entry ?(pa = 0x1000) ?(page = 4096) ?s2 ?(a = attrs ()) () =
  { Tlb.pa_page = pa; attrs = a; s2; page_bytes = page }

let test_tlb_hit_miss () =
  let t = Tlb.create () in
  check_bool "cold miss" true
    (Tlb.lookup t ~vmid:1 ~asid:2 ~va:0x1234 = None);
  Tlb.insert t ~vmid:1 ~asid:2 ~va:0x1234 ~global:false (entry ());
  check_bool "hit" true (Tlb.lookup t ~vmid:1 ~asid:2 ~va:0x1FFF <> None);
  check_bool "other asid misses" true
    (Tlb.lookup t ~vmid:1 ~asid:3 ~va:0x1234 = None);
  check_bool "other vmid misses" true
    (Tlb.lookup t ~vmid:2 ~asid:2 ~va:0x1234 = None);
  check_int "three misses" 3 (Tlb.misses t);
  check_int "one hit" 1 (Tlb.hits t)

let test_tlb_global () =
  let t = Tlb.create () in
  Tlb.insert t ~vmid:1 ~asid:7 ~va:0x4000 ~global:true (entry ());
  check_bool "any asid hits global" true
    (Tlb.lookup t ~vmid:1 ~asid:99 ~va:0x4000 <> None);
  (* flush_asid must keep globals. *)
  Tlb.flush_asid t ~vmid:1 ~asid:99;
  check_bool "global survives asid flush" true
    (Tlb.lookup t ~vmid:1 ~asid:5 ~va:0x4000 <> None);
  Tlb.flush_vmid t 1;
  check_bool "vmid flush removes" true
    (Tlb.lookup t ~vmid:1 ~asid:5 ~va:0x4000 = None)

let test_tlb_2m_entries () =
  let t = Tlb.create () in
  let m2 = 2 * 1024 * 1024 in
  Tlb.insert t ~vmid:0 ~asid:1 ~va:(8 * m2) ~global:false
    (entry ~pa:(16 * m2) ~page:m2 ());
  match Tlb.lookup t ~vmid:0 ~asid:1 ~va:((8 * m2) + 0x54321) with
  | Some e -> check_int "block entry" m2 e.Tlb.page_bytes
  | None -> Alcotest.fail "2MiB entry should hit anywhere in the block"

let test_tlb_eviction () =
  let t = Tlb.create ~capacity:4 () in
  for i = 0 to 7 do
    Tlb.insert t ~vmid:0 ~asid:0 ~va:(i * 4096) ~global:false (entry ())
  done;
  check_bool "bounded" true (Tlb.size t <= 4)

let test_tlb_flush_va () =
  let t = Tlb.create () in
  Tlb.insert t ~vmid:0 ~asid:1 ~va:0x5000 ~global:false (entry ());
  Tlb.insert t ~vmid:0 ~asid:2 ~va:0x5000 ~global:false (entry ());
  Tlb.flush_va t ~vmid:0 ~va:0x5000;
  check_bool "all asids flushed" true
    (Tlb.lookup t ~vmid:0 ~asid:1 ~va:0x5000 = None
    && Tlb.lookup t ~vmid:0 ~asid:2 ~va:0x5000 = None)

(* Regression: re-inserting a live key must replace the entry in
   place, not burn a FIFO slot — otherwise the queue outgrows the
   table and eviction pops stale keys while the table sits over
   capacity. *)
let test_tlb_insert_dedupe () =
  let t = Tlb.create ~capacity:4 () in
  for i = 0 to 3 do
    Tlb.insert t ~vmid:0 ~asid:1 ~va:(i * 4096) ~global:false (entry ())
  done;
  for _ = 1 to 10 do
    Tlb.insert t ~vmid:0 ~asid:1 ~va:0 ~global:false (entry ~pa:0x9000 ())
  done;
  check_int "size stable" 4 (Tlb.size t);
  check_int "fifo = size" (Tlb.size t) (Tlb.fifo_length t);
  (match Tlb.lookup t ~vmid:0 ~asid:1 ~va:0 with
  | Some e -> check_int "updated in place" 0x9000 e.Tlb.pa_page
  | None -> Alcotest.fail "key lost by re-insert");
  (* A new key now evicts exactly the oldest entry (page 0): the
     duplicate inserts must not have queued duplicate FIFO slots. *)
  Tlb.insert t ~vmid:0 ~asid:1 ~va:(4 * 4096) ~global:false (entry ());
  check_int "size at capacity" 4 (Tlb.size t);
  check_int "fifo = size after evict" 4 (Tlb.fifo_length t);
  check_bool "oldest evicted" true (Tlb.lookup t ~vmid:0 ~asid:1 ~va:0 = None);
  check_bool "younger survives" true
    (Tlb.lookup t ~vmid:0 ~asid:1 ~va:4096 <> None)

let test_tlb_fifo_after_flush () =
  let t = Tlb.create ~capacity:8 () in
  for i = 0 to 7 do
    Tlb.insert t ~vmid:0 ~asid:(i land 1) ~va:(i * 4096) ~global:false
      (entry ())
  done;
  Tlb.flush_asid t ~vmid:0 ~asid:1;
  check_int "fifo pruned with table" (Tlb.size t) (Tlb.fifo_length t);
  Tlb.flush_vmid t 0;
  check_int "fifo empty after vmid flush" 0 (Tlb.fifo_length t)

(* The 1-entry front cache must not change hit/miss accounting: the
   same probe sequence against a fronted and an unfronted TLB lands on
   identical counters, across front hits, front misses and
   invalidation by insert. *)
let test_tlb_front_accounting () =
  let plain = (Tlb.create (), None) in
  let fronted = (Tlb.create (), Some (Tlb.front_create ())) in
  let both f =
    f plain;
    f fronted
  in
  let probe (t, front) ~asid ~va = ignore (Tlb.lookup ?front t ~vmid:0 ~asid ~va) in
  let ins (t, _) ~va = Tlb.insert t ~vmid:0 ~asid:1 ~va ~global:false (entry ()) in
  both (fun tf -> ins tf ~va:0x7000);
  both (fun tf -> probe tf ~asid:1 ~va:0x7008);
  both (fun tf -> probe tf ~asid:1 ~va:0x7010);
  both (fun tf -> probe tf ~asid:1 ~va:0x8000);
  both (fun tf -> ins tf ~va:0x8000);
  both (fun tf -> probe tf ~asid:1 ~va:0x8004);
  both (fun tf -> probe tf ~asid:2 ~va:0x7000);
  both (fun tf -> probe tf ~asid:1 ~va:0x7000);
  let ta, _ = plain and tb, _ = fronted in
  check_int "hits equal" (Tlb.hits ta) (Tlb.hits tb);
  check_int "misses equal" (Tlb.misses ta) (Tlb.misses tb)

(* ------------------------------------------------------------------ *)
(* Mmu *)

let one_stage_ctx ?(el = Pstate.EL1) ?(pan = false) ?(unpriv = false) ~root ()
    =
  { Mmu.ttbr0 = Mmu.ttbr_value ~root ~asid:1;
    ttbr1 = 0;
    vmid = 0;
    s2_root = None;
    el;
    pan;
    unpriv }

let test_mmu_basic () =
  let p = Phys.create () in
  let tlb = Tlb.create () in
  let root = Stage1.create_root p in
  Stage1.map_page p ~root ~va:0x1000 ~pa:0x77000 (attrs ());
  let ctx = one_stage_ctx ~root () in
  (match Mmu.translate p tlb ctx Mmu.Read ~va:0x1010 with
  | Ok ok ->
      check_int "pa" 0x77010 ok.pa;
      check_bool "first access misses tlb" false ok.tlb_hit;
      check_int "4 walk reads one-stage" 4 ok.walk_reads
  | Error _ -> Alcotest.fail "translate");
  match Mmu.translate p tlb ctx Mmu.Read ~va:0x1020 with
  | Ok ok -> check_bool "tlb hit" true ok.tlb_hit
  | Error _ -> Alcotest.fail "translate 2"

let test_mmu_pan () =
  let p = Phys.create () in
  let tlb = Tlb.create () in
  let root = Stage1.create_root p in
  Stage1.map_page p ~root ~va:0x1000 ~pa:0x77000 (attrs ~user:true ());
  (* EL1 with PAN=1: user page blocked. *)
  let ctx = one_stage_ctx ~pan:true ~root () in
  (match Mmu.translate p tlb ctx Mmu.Read ~va:0x1000 with
  | Error f ->
      check_int "stage 1" 1 f.stage;
      check_bool "permission" true (f.kind = Mmu.Permission)
  | Ok _ -> Alcotest.fail "PAN should block");
  (* PAN=0: allowed. *)
  let ctx0 = one_stage_ctx ~pan:false ~root () in
  check_bool "pan off allows" true
    (Result.is_ok (Mmu.translate p tlb ctx0 Mmu.Read ~va:0x1000));
  (* Unprivileged access ignores PAN (acts as EL0). *)
  let ctxu = one_stage_ctx ~pan:true ~unpriv:true ~root () in
  check_bool "ldtr allowed to user page" true
    (Result.is_ok (Mmu.translate p tlb ctxu Mmu.Read ~va:0x1000))

let test_mmu_el0_and_exec () =
  let p = Phys.create () in
  let tlb = Tlb.create () in
  let root = Stage1.create_root p in
  Stage1.map_page p ~root ~va:0x1000 ~pa:0x77000 (attrs ());
  (* kernel page *)
  Stage1.map_page p ~root ~va:0x2000 ~pa:0x78000
    (attrs ~user:true ~uxn:false ());
  let ctx0 = one_stage_ctx ~el:Pstate.EL0 ~root () in
  check_bool "el0 cannot read kernel page" true
    (Result.is_error (Mmu.translate p tlb ctx0 Mmu.Read ~va:0x1000));
  check_bool "el0 can exec user+x page" true
    (Result.is_ok (Mmu.translate p tlb ctx0 Mmu.Exec ~va:0x2000));
  (* EL1 cannot execute a user-accessible page. *)
  let ctx1 = one_stage_ctx ~el:Pstate.EL1 ~root () in
  check_bool "el1 cannot exec user page" true
    (Result.is_error (Mmu.translate p tlb ctx1 Mmu.Exec ~va:0x2000));
  check_bool "el1 exec kernel page (no pxn)" true
    (Result.is_ok (Mmu.translate p tlb ctx1 Mmu.Exec ~va:0x1000))

let test_mmu_read_only () =
  let p = Phys.create () in
  let tlb = Tlb.create () in
  let root = Stage1.create_root p in
  Stage1.map_page p ~root ~va:0x1000 ~pa:0x77000 (attrs ~ro:true ());
  let ctx = one_stage_ctx ~root () in
  check_bool "read ok" true
    (Result.is_ok (Mmu.translate p tlb ctx Mmu.Read ~va:0x1000));
  check_bool "write blocked" true
    (Result.is_error (Mmu.translate p tlb ctx Mmu.Write ~va:0x1000))

let test_mmu_ttbr1_select () =
  let p = Phys.create () in
  let tlb = Tlb.create () in
  let r0 = Stage1.create_root p in
  let r1 = Stage1.create_root p in
  Stage1.map_page p ~root:r0 ~va:0x1000 ~pa:0x10000 (attrs ());
  let hi = 0x800000001000 in
  Stage1.map_page p ~root:r1 ~va:hi ~pa:0x20000 (attrs ());
  let ctx =
    { (one_stage_ctx ~root:r0 ()) with
      Mmu.ttbr1 = Mmu.ttbr_value ~root:r1 ~asid:1 }
  in
  (match Mmu.translate p tlb ctx Mmu.Read ~va:0x1000 with
  | Ok ok -> check_int "low via ttbr0" 0x10000 ok.pa
  | Error _ -> Alcotest.fail "low");
  match Mmu.translate p tlb ctx Mmu.Read ~va:hi with
  | Ok ok -> check_int "high via ttbr1" 0x20000 ok.pa
  | Error _ -> Alcotest.fail "high"

let two_stage_setup () =
  let p = Phys.create () in
  let tlb = Tlb.create () in
  let s1 = Stage1.create_root p in
  let s2 = Stage2.create_root p in
  (* stage-1 maps VA 0x1000 -> IPA 0x9000; stage-2 maps IPA 0x9000 ->
     PA 0x55000, and must also map the stage-1 table frames so walks
     can proceed. *)
  Stage1.map_page p ~root:s1 ~va:0x1000 ~pa:0x9000 (attrs ());
  Stage2.map_page p ~root:s2 ~ipa:0x9000 ~pa:0x55000 rw;
  List.iter
    (fun tp -> Stage2.map_page p ~root:s2 ~ipa:tp ~pa:tp ro_perms)
    (Stage1.table_pages p ~root:s1);
  (p, tlb, s1, s2)

let test_mmu_two_stage () =
  let p, tlb, s1, s2 = two_stage_setup () in
  let ctx =
    { Mmu.ttbr0 = Mmu.ttbr_value ~root:s1 ~asid:1;
      ttbr1 = 0; vmid = 3; s2_root = Some s2; el = Pstate.EL1;
      pan = false; unpriv = false }
  in
  (match Mmu.translate p tlb ctx Mmu.Read ~va:0x1234 with
  | Ok ok ->
      check_int "pa through both stages" 0x55234 ok.pa;
      (* 4 s1 levels x (3 s2 walk reads + 1 pte read) + 3 final = 19 *)
      check_int "two-stage walk cost" 19 ok.walk_reads
  | Error f -> Alcotest.failf "two-stage: %a" Mmu.pp_fault f);
  (* A second access hits the combined TLB entry. *)
  match Mmu.translate p tlb ctx Mmu.Read ~va:0x1234 with
  | Ok ok -> check_bool "combined tlb hit" true ok.tlb_hit
  | Error _ -> Alcotest.fail "hit"

let test_mmu_s2_denies_write () =
  let p, tlb, s1, s2 = two_stage_setup () in
  (* Make the data page read-only at stage 2 even though stage 1
     allows writes — the LightZone table-protection pattern. *)
  ignore (Stage2.set_perms p ~root:s2 ~ipa:0x9000 ro_perms);
  let ctx =
    { Mmu.ttbr0 = Mmu.ttbr_value ~root:s1 ~asid:1;
      ttbr1 = 0; vmid = 3; s2_root = Some s2; el = Pstate.EL1;
      pan = false; unpriv = false }
  in
  match Mmu.translate p tlb ctx Mmu.Write ~va:0x1000 with
  | Error f -> check_int "stage 2 fault" 2 f.stage
  | Ok _ -> Alcotest.fail "stage-2 must deny"

let test_mmu_s2_table_fault () =
  let p = Phys.create () in
  let tlb = Tlb.create () in
  let s1 = Stage1.create_root p in
  let s2 = Stage2.create_root p in
  Stage1.map_page p ~root:s1 ~va:0x1000 ~pa:0x9000 (attrs ());
  Stage2.map_page p ~root:s2 ~ipa:0x9000 ~pa:0x55000 rw;
  (* stage-1 tables NOT mapped in stage 2: the walk itself faults. *)
  let ctx =
    { Mmu.ttbr0 = Mmu.ttbr_value ~root:s1 ~asid:1;
      ttbr1 = 0; vmid = 3; s2_root = Some s2; el = Pstate.EL1;
      pan = false; unpriv = false }
  in
  match Mmu.translate p tlb ctx Mmu.Read ~va:0x1000 with
  | Error f ->
      check_int "stage 2" 2 f.stage;
      check_bool "ipa reported" true (f.ipa >= 0)
  | Ok _ -> Alcotest.fail "walk should fault in stage 2"

let test_ttbr_value () =
  let v = Mmu.ttbr_value ~root:0xABC000 ~asid:42 in
  check_int "root" 0xABC000 (Mmu.ttbr_root v);
  check_int "asid" 42 (Mmu.ttbr_asid v)

(* QCheck: stage-1 map/walk agreement over random va/pa pairs. *)
let prop_s1_walk_matches_map =
  QCheck2.Test.make ~name:"stage1 walk returns mapped pa" ~count:200
    QCheck2.Gen.(
      pair (int_range 0 0xFFFFFF) (int_range 1 0xFFFFF))
    (fun (vpage, ppage) ->
      let p = Phys.create () in
      let root = Stage1.create_root p in
      let va = vpage * 4096 and pa = ppage * 4096 in
      Stage1.map_page p ~root ~va ~pa (attrs ());
      match Stage1.walk p ~root ~va:(va + 5) with
      | Ok w -> w.pa = pa + 5
      | Error _ -> false)

(* QCheck: Phys.restore moves a reference only for the frames whose
   slot binding changed. The net counts must come out as if it had
   dropped and re-taken every one: once every snapshot is released, no
   slot is shared and each resident frame owns exactly one live slot.
   Restores also bring back the captured contents. *)
type phys_op =
  | Write of int * int
  | Zero of int
  | Snap
  | Restore of int
  | Release of int

let prop_restore_refcounts =
  let op =
    QCheck2.Gen.(
      frequency
        [ (5, map2 (fun k v -> Write (k, v)) (int_range 0 7) (int_range 1 255));
          (1, map (fun k -> Zero k) (int_range 0 7));
          (2, return Snap);
          (2, map (fun i -> Restore i) nat);
          (1, map (fun i -> Release i) nat) ])
  in
  QCheck2.Test.make ~name:"restore conserves slot refcounts" ~count:300
    QCheck2.Gen.(list_size (int_range 1 80) op)
    (fun ops ->
      let p = Phys.create () in
      let frames = Array.init 8 (fun _ -> Phys.alloc_frame p) in
      let model = Array.make 8 0 in
      let snaps = ref [] in
      let pick i = List.nth !snaps (i mod List.length !snaps) in
      let contents_ok () =
        Array.for_all2 (fun pa v -> Phys.read64 p (pa + 8) = v) frames model
      in
      let ok =
        List.for_all
          (fun o ->
            (match o with
            | Write (k, v) ->
                Phys.write64 p (frames.(k) + 8) v;
                model.(k) <- v
            | Zero k ->
                Phys.zero_frame p frames.(k);
                model.(k) <- 0
            | Snap -> snaps := (Phys.snapshot p, Array.copy model) :: !snaps
            | Restore i when !snaps <> [] ->
                let s, m = pick i in
                ignore (Phys.restore p s);
                Array.blit m 0 model 0 8
            | Release i when !snaps <> [] ->
                let ((s, _) as e) = pick i in
                Phys.release p s;
                snaps := List.filter (fun x -> x != e) !snaps
            | Restore _ | Release _ -> ());
            contents_ok ())
          ops
      in
      List.iter (fun (s, _) -> Phys.release p s) !snaps;
      let st = Phys.stats p in
      ok && st.Phys.shared = 0 && st.Phys.store_slots = st.Phys.resident)

(* QCheck: [drop_view] is the inverse of [cow_clone]. Random clones,
   writes, snapshots, restores, releases and drops over a family of
   views keep every live view's contents equal to its model; once
   every clone is dropped and every snapshot (of live or dropped
   views) released, the original owns all that is left: nothing
   shared, one live slot per resident frame. *)
type view = {
  mem : Phys.t;
  model : int array;
  mutable snaps : (Phys.snapshot * int array) list;
}

type view_op =
  | Clone of int
  | V_write of int * int * int
  | V_snap of int
  | V_restore of int * int
  | V_release of int * int
  | Drop of int

let prop_drop_view_conserves =
  let op =
    QCheck2.Gen.(
      frequency
        [ (2, map (fun i -> Clone i) nat);
          ( 6,
            map3
              (fun i k v -> V_write (i, k, v))
              nat (int_range 0 7) (int_range 1 255) );
          (2, map (fun i -> V_snap i) nat);
          (2, map2 (fun i j -> V_restore (i, j)) nat nat);
          (1, map2 (fun i j -> V_release (i, j)) nat nat);
          (2, map (fun i -> Drop i) nat) ])
  in
  QCheck2.Test.make ~name:"drop_view gives back what cow_clone took"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 80) op)
    (fun ops ->
      let p = Phys.create () in
      let frames = Array.init 8 (fun _ -> Phys.alloc_frame p) in
      let original = { mem = p; model = Array.make 8 0; snaps = [] } in
      let views = ref [ original ] and dropped = ref [] in
      let pick l i = List.nth l (i mod List.length l) in
      let contents_ok v =
        Array.for_all2
          (fun pa x -> Phys.read64 v.mem (pa + 8) = x)
          frames v.model
      in
      let ok =
        List.for_all
          (fun o ->
            (match o with
            | Clone i ->
                let v = pick !views i in
                views :=
                  !views
                  @ [ { mem = Phys.cow_clone v.mem;
                        model = Array.copy v.model; snaps = [] } ]
            | V_write (i, k, x) ->
                let v = pick !views i in
                Phys.write64 v.mem (frames.(k) + 8) x;
                v.model.(k) <- x
            | V_snap i ->
                let v = pick !views i in
                v.snaps <- (Phys.snapshot v.mem, Array.copy v.model) :: v.snaps
            | V_restore (i, j) -> (
                let v = pick !views i in
                match v.snaps with
                | [] -> ()
                | l ->
                    let s, c = pick l j in
                    ignore (Phys.restore v.mem s);
                    Array.blit c 0 v.model 0 8)
            | V_release (i, j) -> (
                let v = pick !views i in
                match v.snaps with
                | [] -> ()
                | l ->
                    let ((s, _) as e) = pick l j in
                    Phys.release v.mem s;
                    v.snaps <- List.filter (fun x -> x != e) v.snaps)
            | Drop i -> (
                match List.tl !views with
                | [] -> ()
                | clones ->
                    let v = pick clones i in
                    Phys.drop_view v.mem;
                    views := List.filter (fun x -> x != v) !views;
                    dropped := v :: !dropped));
            List.for_all contents_ok !views)
          ops
      in
      List.iter
        (fun v -> List.iter (fun (s, _) -> Phys.release v.mem s) v.snaps)
        (!views @ !dropped);
      List.iter (fun v -> Phys.drop_view v.mem) (List.tl !views);
      let st = Phys.stats p in
      ok && st.Phys.shared = 0 && st.Phys.store_slots = st.Phys.resident)

(* A store serving one fork at a time stays the size of one fork: 200
   cycles of clone, write into shared and fresh frames, drop end each
   at the live-slot count the first cycle ended at. *)
let test_drop_view_bounds_store () =
  let p = Phys.create () in
  let frames = Array.init 16 (fun _ -> Phys.alloc_frame p) in
  Array.iteri (fun i pa -> Phys.write64 p pa (i + 1)) frames;
  let image = Phys.snapshot p in
  let after_first = ref 0 in
  for cycle = 1 to 200 do
    let v = Phys.cow_clone p in
    for i = 0 to cycle mod 16 do
      Phys.write64 v (frames.(i) + 8) cycle
    done;
    Phys.write64 v (Phys.alloc_frame v) cycle;
    Phys.drop_view v;
    let slots = (Phys.stats p).Phys.store_slots in
    if cycle = 1 then after_first := slots
    else
      check_int (Printf.sprintf "slots after cycle %d" cycle) !after_first slots
  done;
  check_int "image contents untouched" 16 (Phys.read64 p frames.(15));
  Phys.release p image;
  check_int "only the original's slots remain" 16
    (Phys.stats p).Phys.store_slots

(* QCheck: a stamp vouches for the bytes it was made on. Random
   writes, stamps, snapshots, restores, clones, drops and frees over a
   family of views (dropped views stay in use); whenever a frame reads
   as stamped with a tag, the view (or the view it was cloned from)
   stamped it with that tag while it held the bytes it holds now. The
   model keeps, per view and frame, the tag and a copy of the bytes of
   the last stamp. *)
type stamp_view = {
  sv : Phys.t;
  marks : (int * Bytes.t) option array;
  mutable s_snaps : Phys.snapshot list;
}

type stamp_op =
  | S_write of int * int * int
  | S_stamp of int * int * int
  | S_snap of int
  | S_restore of int * int
  | S_clone of int
  | S_drop of int
  | S_free of int * int

let prop_stamp_holds_bytes =
  let frames_n = 4 in
  let frame = QCheck2.Gen.int_range 0 (frames_n - 1) in
  let op =
    QCheck2.Gen.(
      frequency
        [ (6, map3 (fun i k v -> S_write (i, k, v)) nat frame (int_range 1 3));
          ( 4,
            map3 (fun i k tag -> S_stamp (i, k, tag)) nat frame (int_range 0 1)
          );
          (2, map (fun i -> S_snap i) nat);
          (2, map2 (fun i j -> S_restore (i, j)) nat nat);
          (2, map (fun i -> S_clone i) nat);
          (1, map (fun i -> S_drop i) nat);
          (1, map2 (fun i k -> S_free (i, k)) nat frame) ])
  in
  QCheck2.Test.make ~name:"a stamped frame holds its stamped bytes"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 80) op)
    (fun ops ->
      let p = Phys.create () in
      let frames = Array.init frames_n (fun _ -> Phys.alloc_frame p) in
      let views =
        ref [ { sv = p; marks = Array.make frames_n None; s_snaps = [] } ]
      in
      let pick l i = List.nth l (i mod List.length l) in
      let bytes v k = Phys.read_bytes v.sv frames.(k) Phys.page_size in
      let vouched v =
        List.for_all
          (fun k ->
            List.for_all
              (fun tag ->
                (not (Phys.stamped v.sv frames.(k) ~tag))
                ||
                match v.marks.(k) with
                | Some (t, b) -> t = tag && Bytes.equal b (bytes v k)
                | None -> false)
              [ 0; 1 ])
          (List.init frames_n Fun.id)
      in
      List.for_all
        (fun o ->
          (match o with
          | S_write (i, k, x) ->
              Phys.write64 (pick !views i).sv (frames.(k) + 8) x
          | S_stamp (i, k, tag) ->
              let v = pick !views i in
              Phys.stamp v.sv frames.(k) ~tag;
              v.marks.(k) <- Some (tag, bytes v k)
          | S_snap i ->
              let v = pick !views i in
              v.s_snaps <- Phys.snapshot v.sv :: v.s_snaps
          | S_restore (i, j) -> (
              let v = pick !views i in
              match v.s_snaps with
              | [] -> ()
              | l -> ignore (Phys.restore v.sv (pick l j)))
          | S_clone i ->
              let v = pick !views i in
              views :=
                !views
                @ [ { sv = Phys.cow_clone v.sv; marks = Array.copy v.marks;
                      s_snaps = [] } ]
          | S_drop i -> Phys.drop_view (pick !views i).sv
          | S_free (i, k) -> Phys.free_frame (pick !views i).sv frames.(k));
          List.for_all vouched !views)
        ops)

(* What keeps a frame's bytes keeps its stamp: a restore that leaves
   the frame clean, a clone. What changes them, or may have, does
   not: a store (even of the same bytes), the restore of a dirty
   frame. A stamp answers only for its own tag. *)
let test_stamp_lifetime () =
  let p = Phys.create () in
  let a = Phys.alloc_frame p and b = Phys.alloc_frame p in
  Phys.write64 p a 1;
  Phys.stamp p a ~tag:0;
  check_bool "stamped" true (Phys.stamped p a ~tag:0);
  check_bool "other tag" false (Phys.stamped p a ~tag:1);
  check_bool "other frame" false (Phys.stamped p b ~tag:0);
  let s = Phys.snapshot p in
  Phys.write64 p b 2;
  ignore (Phys.restore p s);
  check_bool "kept by a restore that leaves it clean" true
    (Phys.stamped p a ~tag:0);
  let c = Phys.cow_clone p in
  check_bool "a clone inherits it" true (Phys.stamped c a ~tag:0);
  Phys.write64 c a 3;
  check_bool "the clone's store stales the clone's" false
    (Phys.stamped c a ~tag:0);
  check_bool "the original's stays" true (Phys.stamped p a ~tag:0);
  Phys.write64 p a 1;
  check_bool "a store of the same bytes stales it" false
    (Phys.stamped p a ~tag:0);
  Phys.stamp p a ~tag:1;
  check_bool "restamped under tag 1" true (Phys.stamped p a ~tag:1);
  check_bool "which replaced tag 0" false (Phys.stamped p a ~tag:0);
  Phys.write64 p a 4;
  Phys.stamp p a ~tag:1;
  ignore (Phys.restore p s);
  check_bool "a dirty restore stales it" false (Phys.stamped p a ~tag:1);
  Phys.release p s;
  Phys.drop_view c

let () =
  Alcotest.run "lz_mem"
    [ ( "phys",
        [ Alcotest.test_case "read/write" `Quick test_phys_rw;
          Alcotest.test_case "cross page" `Quick test_phys_cross_page;
          Alcotest.test_case "alloc/free" `Quick test_phys_alloc;
          Alcotest.test_case "contiguous" `Quick test_phys_contiguous;
          QCheck_alcotest.to_alcotest prop_restore_refcounts;
          QCheck_alcotest.to_alcotest prop_drop_view_conserves;
          Alcotest.test_case "drop_view bounds the store" `Quick
            test_drop_view_bounds_store;
          QCheck_alcotest.to_alcotest prop_stamp_holds_bytes;
          Alcotest.test_case "stamp lifetime" `Quick test_stamp_lifetime ] );
      ( "pte",
        [ Alcotest.test_case "stage1 bits" `Quick test_pte_s1;
          Alcotest.test_case "attr rewrite" `Quick test_pte_attr_rewrite;
          Alcotest.test_case "stage2 bits" `Quick test_pte_s2;
          Alcotest.test_case "table type" `Quick test_pte_table ] );
      ( "stage1",
        [ Alcotest.test_case "map/walk" `Quick test_s1_map_walk;
          Alcotest.test_case "2MiB block" `Quick test_s1_block;
          Alcotest.test_case "unmap/attrs" `Quick test_s1_unmap_and_attrs;
          Alcotest.test_case "iter/tables" `Quick test_s1_iter_and_tables;
          Alcotest.test_case "dup+transform" `Quick test_s1_dup_transform;
          Alcotest.test_case "destroy frees" `Quick test_s1_destroy_frees;
          QCheck_alcotest.to_alcotest prop_s1_walk_matches_map ] );
      ( "stage2",
        [ Alcotest.test_case "map/walk" `Quick test_s2_map_walk;
          Alcotest.test_case "set perms" `Quick test_s2_set_perms;
          Alcotest.test_case "identity range" `Quick test_s2_identity_range ]
      );
      ( "tlb",
        [ Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "global entries" `Quick test_tlb_global;
          Alcotest.test_case "2MiB entries" `Quick test_tlb_2m_entries;
          Alcotest.test_case "eviction" `Quick test_tlb_eviction;
          Alcotest.test_case "flush va" `Quick test_tlb_flush_va;
          Alcotest.test_case "insert dedupe" `Quick test_tlb_insert_dedupe;
          Alcotest.test_case "fifo after flush" `Quick
            test_tlb_fifo_after_flush;
          Alcotest.test_case "front accounting" `Quick
            test_tlb_front_accounting ] );
      ( "mmu",
        [ Alcotest.test_case "basic" `Quick test_mmu_basic;
          Alcotest.test_case "pan" `Quick test_mmu_pan;
          Alcotest.test_case "el0 + exec rules" `Quick test_mmu_el0_and_exec;
          Alcotest.test_case "read only" `Quick test_mmu_read_only;
          Alcotest.test_case "ttbr1 select" `Quick test_mmu_ttbr1_select;
          Alcotest.test_case "two-stage" `Quick test_mmu_two_stage;
          Alcotest.test_case "s2 denies write" `Quick test_mmu_s2_denies_write;
          Alcotest.test_case "s2 table fault" `Quick test_mmu_s2_table_fault;
          Alcotest.test_case "ttbr value" `Quick test_ttbr_value ] ) ]
