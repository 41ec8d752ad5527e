//! Golden residuals: pins the compiler's output and its front-end
//! analyses across refactors.
//!
//! For the seven Fig. 8 programs (at their benchmark arguments) and for
//! a fixed-seed batch of generated programs, the test hashes
//!
//! * the residual S₀ text (`Pipeline::compile(..).to_source()`),
//! * the emitted C text (`Pipeline::emit_c`), and
//! * the §4.2 flow facts and §4.5 generalization sets: every variable's
//!   abstract value, every `cons` site's components, the returned and
//!   context lambdas, and `GenAnalysis`'s critical lambdas, critical
//!   cons sites and stack candidates,
//!
//! with FNV-1a (fixed, seedless, identical on every platform) and
//! compares them against values recorded from a known-good build.  A
//! change that alters any residual byte or any analysis fact fails here;
//! a change that means to alter them must re-record the tables (the
//! failure message prints fresh ones) and say why.

use pe_core::CompileOptions;
use pe_frontend::dast::{SimpleExpr, TailExpr};
use pe_frontend::{DProgram, FlowAnalysis, GenAnalysis, Prim};
use pe_interp::Datum;
use pe_siege::gen::gen_case;
use pe_siege::rng::Rng;
use realistic_pe::{suite, Pipeline};
use std::fmt::Write as _;

/// Generated programs pinned, and the seed of their stream.
const GEN_CASES: usize = 200;
const GEN_SEED: u64 = 0x601D_E2E5;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn cons_sites(p: &DProgram) -> Vec<u32> {
    fn simple(se: &SimpleExpr, out: &mut Vec<u32>) {
        if let SimpleExpr::Prim(l, op, args) = se {
            if *op == Prim::Cons {
                out.push(l.0);
            }
            args.iter().for_each(|a| simple(a, out));
        }
    }
    fn tail(te: &TailExpr, out: &mut Vec<u32>) {
        match te {
            TailExpr::Simple(se) => simple(se, out),
            TailExpr::If(_, c, t, e) => {
                simple(c, out);
                tail(t, out);
                tail(e, out);
            }
            TailExpr::CallProc(_, _, args) => args.iter().for_each(|a| simple(a, out)),
            TailExpr::PushApp(_, ctx, body) => {
                simple(ctx, out);
                tail(body, out);
            }
        }
    }
    let mut out = Vec::new();
    p.defs.iter().for_each(|d| tail(&d.body, &mut out));
    p.lambdas.iter().for_each(|l| tail(&l.body, &mut out));
    out
}

/// Every fact the flow and generalization analyses compute, rendered.
fn analysis_text(p: &DProgram) -> String {
    let flow = FlowAnalysis::analyze(p);
    let gen = GenAnalysis::analyze(p, &flow);
    let mut s = String::new();
    for v in 0..p.var_names.len() {
        let v = pe_frontend::dast::VarId(v as u32);
        let _ = writeln!(s, "{v} {:?} {:?}", flow.var(v), flow.var_lambdas(v));
    }
    for site in cons_sites(p) {
        let _ = writeln!(s, "cons {site} {:?}", flow.cons_components(site));
    }
    let _ = writeln!(s, "ret {:?}", flow.returned_lambdas());
    let _ = writeln!(s, "ctx {:?}", flow.context_lambdas());
    let _ = writeln!(s, "critical lams {:?}", gen.critical_lams);
    let _ = writeln!(s, "critical cons {:?}", gen.critical_cons);
    let _ = writeln!(s, "stack {:?}", gen.stack_candidates);
    s
}

/// `(residual S₀, emitted C, analysis facts)` hashes of one program; a
/// compile error is pinned by its message in both output slots.
fn hashes(source: &str, entry: &str, args: &[Datum]) -> (u64, u64, u64) {
    let pipe = match Pipeline::new(source) {
        Ok(p) => p,
        Err(e) => {
            let h = fnv1a(e.to_string().as_bytes());
            return (h, h, h);
        }
    };
    let facts = fnv1a(analysis_text(&pipe.dprog).as_bytes());
    let opts = CompileOptions::default();
    let s0 = match pipe.compile(entry, &opts) {
        Ok(s0) => fnv1a(s0.to_source().as_bytes()),
        Err(e) => fnv1a(e.to_string().as_bytes()),
    };
    let c = match pipe.emit_c(entry, args, &opts, &mut pe_trace::NullSink) {
        Ok(c) => fnv1a(c.source.as_bytes()),
        Err(e) => fnv1a(e.to_string().as_bytes()),
    };
    (s0, c, facts)
}

/// Fails listing the differing programs (with the source of the first)
/// and the freshly computed table, ready to paste in if the change was
/// intended.
fn report(diffs: &[String], table: &str) {
    assert!(
        diffs.is_empty(),
        "golden residuals changed:\n{}\nfresh table:\n{table}",
        diffs.join("\n")
    );
}

#[test]
fn fig8_residuals_are_pinned() {
    let (mut diffs, mut table) = (Vec::new(), String::new());
    for (i, b) in suite::SUITE.iter().enumerate() {
        let got = hashes(b.source, b.entry, &b.bench_inputs());
        let _ = writeln!(table, "    (\"{}\", {:#018x}, {:#018x}, {:#018x}),", b.name, got.0, got.1, got.2);
        let want = FIG8.get(i).copied().unwrap_or(("", 0, 0, 0));
        if (want.0, (want.1, want.2, want.3)) != (b.name, got) {
            diffs.push(format!("{}: want {want:x?}, got {got:x?}", b.name));
        }
    }
    assert_eq!(suite::SUITE.len(), FIG8.len());
    report(&diffs, &table);
}

#[test]
fn generated_residuals_are_pinned() {
    let mut master = Rng::new(GEN_SEED);
    let (mut diffs, mut table) = (Vec::new(), String::new());
    for i in 0..GEN_CASES {
        let case = gen_case(&mut master.fork());
        let got = hashes(&case.source, &case.entry, &case.args);
        let _ = writeln!(table, "    ({:#018x}, {:#018x}, {:#018x}),", got.0, got.1, got.2);
        let want = GENERATED.get(i).copied().unwrap_or_default();
        if want != got {
            let source = if diffs.is_empty() { case.source.as_str() } else { "" };
            diffs.push(format!("case {i}: want {want:x?}, got {got:x?}\n{source}"));
        }
    }
    assert_eq!(GENERATED.len(), GEN_CASES);
    report(&diffs, &table);
}

/// `(name, S₀ hash, C hash, analysis hash)` per Fig. 8 program.
const FIG8: &[(&str, u64, u64, u64)] = &[
    ("deriv", 0x82f07dd5711f5e9e, 0x09592b42536b0b23, 0x0a77054d44786b2b),
    ("tak", 0x5e8e4cdcf840e05c, 0x820de5aee71e8088, 0x48097f70be943658),
    ("cpstak", 0x489e883633c32b7a, 0xdd43ca4bd37bde97, 0xa1dcc2cfb86d9bca),
    ("takl", 0xb0c3cac10233379f, 0xe109bf00d352fece, 0xd4b05ac7bbe6bffc),
    ("fibclos", 0x39b4effd10438931, 0x777dbe385735b9eb, 0xb98080aab87b956e),
    ("cps-append", 0x0891035b14351f3a, 0x6c1ebc9e1bd02471, 0x2b3352d70863c1f2),
    ("queens", 0xacb4421457dbc2cb, 0x6f7fa951d0237f7b, 0xdca8654ea778bd45),
];

/// `(S₀ hash, C hash, analysis hash)` per generated program.
const GENERATED: &[(u64, u64, u64)] = &[
    (0x57d3e4cfb0e76147, 0x9294af0f5e794417, 0xd32c150ad55750c6),
    (0x3ab51d1981faa633, 0x6c6c063ce5d00edc, 0xad0ec36715d3d7f7),
    (0x94ef4c14ea9eb290, 0x9db15d93a4358830, 0xb9267521fd015ee1),
    (0x44314c198795a8cc, 0x2964706b9650bf0f, 0xc44ca47b762cc96f),
    (0x8c9fcf9473364f39, 0xa90e9697305732cc, 0xabdd998fcfaab53b),
    (0x8d262d14e6755fa7, 0x925d86e1e75095b5, 0x438a4e537551b9ae),
    (0x66a0e8199b078c18, 0x02f35f86723b7743, 0x4ed194b69ddaaa03),
    (0xcba6fc42c91a6889, 0x5ab98bf81eb2f00e, 0xafe5e392e7430be3),
    (0x6e48b769d8424d58, 0x9d33d9e80d0bd002, 0x91b8eeb8faa1c80f),
    (0x8d262d14e6755fa7, 0x964168f35f740572, 0x41494fd1f42bd081),
    (0x10fc7889ba49f3d2, 0x6da1b522cfcb903c, 0x07f7ee44c6237753),
    (0xa4b7b2b0480bfff4, 0x75f2d3c215641a71, 0x42e202e94e733c05),
    (0x21f47b9b7da68333, 0xc58009598054aab2, 0x95862ff6d4f0f390),
    (0x77a4f4c9fa257701, 0x2ee4e5532c2f4046, 0xf07b80d08e3390a9),
    (0x66a0e8199b078c18, 0x3a7e7f7af7873dd5, 0xd0fcc99508978ec9),
    (0xced83f765ed10567, 0x28ad8278304251da, 0x0d9e941e6e83a67a),
    (0xa83144897eb154be, 0x113f1410b88c97fc, 0x45d22e85eebbcafd),
    (0x83b1775f1976d56c, 0xb2f7b854f3051d62, 0xd9665fc474539094),
    (0x58abe99b6917ad1e, 0x9df8173f26eb19ed, 0x3d282f8730d3227a),
    (0x864216975a9ca387, 0x6eb90df61ab848c0, 0xbc57531834bfbea6),
    (0x44a3a16098580166, 0xbe1c5c6772b0e17a, 0x6c7af2b657570071),
    (0x8d262d14e6755fa7, 0x2422c82277e7cfd9, 0xc0e67c7680150342),
    (0xcba6fc42c91a6889, 0x593e14308f3eadcc, 0xd405add6327d26ee),
    (0xfe26febd554851db, 0x9bb4dbc4a962f6bb, 0xa64efd8aec97af4b),
    (0x1ebeedb3bfd92390, 0x346beb71794a6905, 0xe048d2f4111faba0),
    (0x92b5ac0d254b94db, 0x8bed7e8dea1bcde4, 0x05d74fc7fcd21955),
    (0x64195e97b26f0653, 0x7e2d0cedd1682e53, 0x6977e3d03778dc1c),
    (0x446ad8ec7afaa24a, 0xdf76bd739f8716b9, 0x702e05c1e29434d2),
    (0x555cb8c13b9895b8, 0xa64e9b112f5a714a, 0xb6ecedb5ba6b51af),
    (0x0859c989b567bb79, 0xc151a69512c74bbd, 0x903f2fd3c2d5ad68),
    (0x94ef4c14ea9eb290, 0x7290c81798f7208d, 0x13699576556162b6),
    (0xcba6fc42c91a6889, 0x66af90790ae05f81, 0xce2d330449f2cbfc),
    (0xaf83dd148bda1ed6, 0x80bfcaffef036b90, 0x838ae9e3ae8d0c65),
    (0x91797c57793eeb4c, 0xdebe66fa5152beaf, 0x8bb3631eda24ecba),
    (0x113c52dadeddb3a4, 0x32f485d9e3ad8a69, 0x4b49f367a21afb29),
    (0x93e32dc9ac7f9c75, 0xa359fc2178374448, 0x7245fe8ff1739dcf),
    (0x5880b1fcd9f11b84, 0x01ca6120c967d479, 0x804541fa1a2bfab3),
    (0x8b3ce14853d05025, 0xcc54edfbac944212, 0x590a0d0c884742d5),
    (0xbc1902391b69f9bd, 0xfad2f26c7394dba7, 0x560db09ab4b54983),
    (0x0845a76f546522f7, 0x1d59086dfdde0243, 0xa6cb4027e240cc80),
    (0x43e7bdb480aba278, 0x309b8fb37c448a2b, 0xc3c14a5d108b56a7),
    (0xd3877389973f0d9b, 0x265951da012b77aa, 0x49fdd76cb499900d),
    (0x44314c198795a8cc, 0x15918499a0cf11d4, 0x5527034e490d75f8),
    (0xb177a682f9ed0ab9, 0x74611001e9468347, 0xf66b2787cf3606a6),
    (0x66a0e8199b078c18, 0x4de60ba669ea4f52, 0x612beb5623c49b64),
    (0xc6fa721e4fa719cb, 0xde6fe61a9a4c762c, 0x85b2707fe9a475e6),
    (0xff065e89afef5800, 0xdbb211a3f0ef5cf4, 0x7a785e564b380bc6),
    (0x83b1775f1976d56c, 0x5377c3e8699bafbb, 0xd660ffd33b127d53),
    (0x8d262d14e6755fa7, 0xff800f0ad6679310, 0x85f0fb1f9dea3ce4),
    (0x304760ceb736ee1b, 0xdbbcf97b3477a7cd, 0xde470a26c88fe6da),
    (0x3bbd786a55cd03fa, 0x69edf248c033482e, 0xded48e1c19de13c5),
    (0x8d262d14e6755fa7, 0x86b54b84ab2931b3, 0x54ea94711b036ccb),
    (0x94ef4c14ea9eb290, 0xc0d8fde2f1600384, 0x82f6c30e430c6c27),
    (0xe4af7ed53c69f8ce, 0xd52377aa05762fe3, 0xbf5f870068bddb14),
    (0xfd0a73e8a6e113a0, 0x856b3760af40d37d, 0xfc090ecb17e1a6b6),
    (0x11ecd7f5869e5d4f, 0x4fe50a410f14c2f4, 0xb6800818b895bed1),
    (0xf288fe66c2d196b7, 0x311283facbbe22eb, 0x34cf29438cd9ad1e),
    (0x677c590293902206, 0xb58a981e5d00ca46, 0x8976429aa1a40e22),
    (0xfcebc20496ea2da1, 0xf8153edaeba61011, 0x3a9fbf3e90c24a94),
    (0x8d262d14e6755fa7, 0xbd9ebc3a342cf6ac, 0xa9d70db861c1a320),
    (0xd6b233de52259200, 0xddb71c4256c22ae9, 0xb42dba5d9548c6f7),
    (0x8d262d14e6755fa7, 0xfc49134a2a5d8e3d, 0x19cf745836e16a70),
    (0xee8cec89a6d82bb6, 0x4b68a28df31b63e9, 0xb0de8e16ad5f1d04),
    (0xb654071071d010a7, 0x97b4d79c90ac8750, 0x5dccb664cb981e11),
    (0xab499019c1bcce90, 0xd181a1c04ddd65df, 0xbceaa2832df879a9),
    (0x0859c989b567bb79, 0x44c4e2fd98bfb569, 0x45b3982d0f1e482a),
    (0xdd03a2899cda1034, 0x64d825de9d85f8fa, 0x82290ffbbdbf5694),
    (0xd3877389973f0d9b, 0x3dc8065bf79b4a95, 0x582c58e6e4a92726),
    (0x3bc4681bdd1b81a0, 0xac25924b1146d3e4, 0x3808596b92894c08),
    (0xfffc59706713ac37, 0xa295d20742f2d66b, 0x0939adc39e270cf2),
    (0xcba6fc42c91a6889, 0xc61f1385643591ac, 0x83a5b979ba8d5924),
    (0xd14bb1453955ac13, 0x0a3f5e84dbca8c5a, 0x9a44bbfbb1ccd680),
    (0x0d7e7812177d6949, 0x989681c9746b16b5, 0x0261f1905c0c9895),
    (0xd1a6d5095cb4c21e, 0xf0eb1f0aff8e3b49, 0xafa0250883096745),
    (0x1d7deb284cfd1226, 0xce5d2c9452444420, 0xd2432c5f876260f2),
    (0xed415b5cc584379b, 0x75a7d68e95f2e20d, 0x98210c8d1c3de92c),
    (0xa3807119bd937ba7, 0x82d5e8c2d3d3e534, 0x201a93779f1d4baa),
    (0xcba6fc42c91a6889, 0xc61f1385643591ac, 0x75469cd6ece593a6),
    (0x4fd5ea9bb91d445c, 0xc23176f74de606c4, 0x342d87393a3c96c7),
    (0x0c487f7ff0db888e, 0x8ef8b8f2702ec079, 0xa850dc29ce066a0e),
    (0x0f8cce4daf22a2d3, 0x8d49687d1ca5b3df, 0x9900ce3fb76dc305),
    (0x89101e11df075754, 0x4b0d2b200700e7e0, 0xed558472222470e6),
    (0x4101a20b638a81a8, 0x010d6fef9af0de4e, 0x28251899826241c2),
    (0xdd03a2899cda1034, 0xeb69dfc7cd5b204d, 0xa2d87f1ef608315e),
    (0x87e9f16462693bbe, 0x550560a936508d07, 0x84536f8f7473f76c),
    (0x73acdf94d8498e8e, 0xe405bde170c32d8a, 0x4d3add11342aeace),
    (0xee8cec89a6d82bb6, 0x58c8977491926c54, 0x8cce4eebd4607216),
    (0x94ef4c14ea9eb290, 0x32cb62a69b47c62c, 0x8d4e06a4dccde4ec),
    (0x978e7e692c998d97, 0xc421e8171e6a2b32, 0x007ca1c7938e552c),
    (0x70da121e418745d7, 0xa7930e5f9b85b07a, 0x6cc8aa49769c8c5f),
    (0x67821594d52ad154, 0x21e53ca37ee525de, 0x44d0c0ea846d62ab),
    (0x530a0d370294ee0e, 0x4d7f10d58cba124a, 0x340fc01aab2f56f7),
    (0xafba35cb9cfd5321, 0xc1a6134fd3935a61, 0xce3b0c37a023c018),
    (0x870a66f066a624ff, 0x0d5ad0f944b9b67c, 0xd78364a429a1d38c),
    (0x94ef4c14ea9eb290, 0x707c61ce66d6e354, 0x27d3951f4736876e),
    (0x54747619907ecb4e, 0x29a843d4332c2cb4, 0x1ddceb14bcf1aa92),
    (0xcc8ea1cb785fed1e, 0xea4c8f73d793c06f, 0xa70aca4cca4c7b23),
    (0x10fc7889ba49f3d2, 0x31e3c8817329010d, 0xa10863808595b583),
    (0xa4f3352c6c250efd, 0xf04e440308eb909e, 0x998604540681b290),
    (0xaf5ea112a8f51f03, 0x066284f9e8e7416b, 0x035af2df74c9ec5a),
    (0xc83b70ce8a6d8608, 0xc8f2c4005973747e, 0x3d4b71fb8f62c959),
    (0xe4d2804ac13d63ac, 0x58ea3371e6fdc2c3, 0xf0e21b28094d3141),
    (0x0a55f6865d671e76, 0x4c7e6ee1f08ddae9, 0x499e5a0a533d4228),
    (0xb25f1a7c7eb779f7, 0xce56a82704fbf611, 0xe5350e45b6dd820d),
    (0xee8cec89a6d82bb6, 0x7443cef4ea5fbe56, 0x0e7dd7de1166eb44),
    (0xba3b4e35e533b35d, 0x5376d5468a9c84d6, 0xc0cc628e9bd3f019),
    (0xab3348de3975479b, 0x0c188ec7c9cf6ecd, 0x39c994a550ee8ba1),
    (0x54747619907ecb4e, 0xabf243da2b307e07, 0xc30ec861de135073),
    (0xecfd29f31ab50f43, 0xada597d4540349ae, 0x93078439e566d812),
    (0xda2366d55ce84530, 0x4ddf220a697576bc, 0xdb7353bb7c5276da),
    (0xa83144897eb154be, 0x5da22c13d671d8dc, 0x1c67a5768430d1bd),
    (0x9bfb04bc9f9c683b, 0x4526f405361480eb, 0x7e97c8a26f5f5a81),
    (0x66a0e8199b078c18, 0x57caf4825e62d521, 0xc6d2e703241ab382),
    (0xab499019c1bcce90, 0x49f4dea078af18a9, 0xf8be0635086e0b48),
    (0x88685bfefd1a9cca, 0xf826a7419cf418e3, 0xad6ec1bcd90928eb),
    (0x94ef4c14ea9eb290, 0x43aafe5a379b5b60, 0xd9c399aec5a14462),
    (0xcd402798f404f68b, 0x8883579462d64820, 0xed89b3fa8d2efdaa),
    (0xf13a89d8274c595a, 0xace1eaf1113c5d17, 0xa17f8e7d0c573a8a),
    (0x74a06c716f039750, 0x8bb89b5b43f9a430, 0xb4bfd0bb9b66ff1e),
    (0x3c5eb7e131a35c38, 0xde5d220aa5638472, 0x18417e228632d191),
    (0xc31512904cf0fe2b, 0x3fd2c32754418897, 0x2e80922661198697),
    (0x419fef6cb3937efb, 0xa2b4793afa911a74, 0xd3c7cc471e01837c),
    (0xbed8aa912e3e9606, 0x9656ef954b203095, 0x1233f4b65d68c8d5),
    (0x44314c198795a8cc, 0x01238769f527e429, 0x3813016abedb5d6c),
    (0xb03ebdab359d9709, 0xe5c6a480f970491f, 0x5b4c077b00c768b0),
    (0x09b74e3523f609b4, 0x68e8aa6adb65ce51, 0xd10238b754c888d6),
    (0x08664f3c57883211, 0xcb458190528de1b9, 0x3aea0e4c490d16e9),
    (0xd4a1ff7ccc978728, 0x52da0fd90e695cef, 0x6a669e3c82f40e10),
    (0xed1e5961028279bb, 0x1479359fc9eadc03, 0x7b7f90bf98f0112d),
    (0xfe60606126e5a87c, 0xee248c95922c006e, 0xe5279de726cd3b8c),
    (0x48e97ebba246ccb9, 0x369bb9f2782e9a69, 0x1eda554deba04765),
    (0x7d7ac1cc755c5414, 0xe1c976ef6de546ca, 0x012c8b4c100dd1da),
    (0x843a0cf3fd9f4007, 0xc4e22e243e2d3628, 0xd865b4080a19ae99),
    (0x94ef4c14ea9eb290, 0xb4d4d2281c5fea3c, 0x24f8d8e5a2cc8f8b),
    (0x0859c989b567bb79, 0xffe666cf448633fb, 0x85d50a81e8b79a12),
    (0xedde40138940377b, 0xb25d682d26b8547c, 0xd808c7c9a0875898),
    (0xdd03a2899cda1034, 0x8f263f4225e18fcc, 0x37bc585e5ebf2a1e),
    (0x20a8b930b089adef, 0x551c0080320aaf40, 0x4799cce43d2fc51d),
    (0x1ae166a40a8ef63f, 0x029b569bdf13064c, 0xaf3253093635ecf0),
    (0x0e716d4690ef2458, 0x21e1ea28302ee3ef, 0x49833b6b303401c6),
    (0x278dab3df129c8cb, 0x9adfbb8b7533c795, 0xa815c57fea438eb2),
    (0x8d262d14e6755fa7, 0xad2114f9594a9e7c, 0xe6226fa060d09ad5),
    (0x08c08117abdbf2da, 0xcb9bca128b1e101e, 0x9a0dfa3a182e8e8b),
    (0xff1cd0277da34796, 0x9b719e0aeeaf7dae, 0x5d9065c77f7fa636),
    (0x83c0abc21c94cb48, 0x5f5cdc85ea2f394f, 0x4a2d39e2b21830c4),
    (0xe79e56ea5ae0c16e, 0xeab78a32bdecdedf, 0x42b772ea8083f7b7),
    (0xf13e8f1e532d93e8, 0xb60855a994467136, 0xd046d8e503cff747),
    (0x1510d5a825a761e1, 0xd91e9a50f0f2073a, 0xa15e450ed7aac5bc),
    (0x46871ee31a229d18, 0x0472b452a104e9c3, 0x9bb07d4d17ebeafe),
    (0xb3fa0a4321788b7e, 0x7f214a71a98b0e54, 0xcc21113618d6b17f),
    (0xf6ea110c08055ca0, 0xfd22fd7fffc27218, 0xe6a9bbe38a731ca5),
    (0x93d4f7937e499081, 0xbadc36c1ef5a6028, 0x6ebf95a8ec2610e0),
    (0x34f299fd329d003d, 0x1b6e01e38800937a, 0xa52f1f7d1ff83f6b),
    (0xcba6fc42c91a6889, 0x66af90790ae05f81, 0xd0a5bf00db070527),
    (0xcba6fc42c91a6889, 0xed0fbb582c36438f, 0x20d46958b4e1c550),
    (0x772f6269dd5e4bb1, 0x8b5421945c117df6, 0xfba8d26d8360c9bf),
    (0x8dc1c171bf1be33d, 0xc55eff073f0c6dac, 0x21975c48438986a3),
    (0xa238cb79e2bbc632, 0xdff0a91add06934f, 0x709503e2bc590f98),
    (0x66a0e8199b078c18, 0x3561ced26c459b18, 0x39f5e22b41032b5d),
    (0x8b3ce14853d05025, 0xb23690ef6f181170, 0xdc4757e606f47271),
    (0x023c0e1e8cbbb73d, 0x11e9782f18b41d25, 0x0c00e4dd24ae4f6f),
    (0x216f7be35280c79a, 0x950103f2f140bf9a, 0x28d32d77e6abe369),
    (0x94ef4c14ea9eb290, 0x5b6f046e1b07f98a, 0x79345c0151915d64),
    (0x4ce197198c837495, 0x997fded59581eee8, 0xa43a64460727e879),
    (0x530a0d370294ee0e, 0xfa68cf3537487664, 0x8706d4f7b4572970),
    (0x4728351f69a3dbb9, 0xa5e5a31aeb261e18, 0xbe4c9905e8e0e193),
    (0x6b0b5d0d1aa0d978, 0xc48a61a6fd5befa0, 0x7cd1000f832e0dde),
    (0x48ed3848160df659, 0x9f81667fa899f85a, 0x0095d578f752b0e7),
    (0xd772fded7f955d95, 0x8cc5da46eeed296b, 0x0080003d1bbb722b),
    (0x7d7ac1cc755c5414, 0x3308b6c9f1e3d7d0, 0x1e09ed1cab095a15),
    (0x2cde911c0cf85567, 0x91df6d58b505d014, 0xfb5a7b587e66e5d5),
    (0x3e1bca8a226daa07, 0xea4d58a712158a02, 0xdaa6cc6c6ef7c89e),
    (0x66a0e8199b078c18, 0xf34e43033a9ff759, 0x251c5cae62e2a057),
    (0xe5b3ed89a1c7dbfd, 0xe318f4cfb1e4061b, 0x0f41b178096958fa),
    (0x66a0e8199b078c18, 0x545069462ee8c608, 0xbae19e43021256be),
    (0x782a4219a505c2ca, 0x696001f490a19f54, 0x90ef35696d123131),
    (0x61018c178c6e464d, 0x927525a4ef18340e, 0xb709e5abb3f48e0b),
    (0x7ba5f15225509c58, 0xe192e33a7489db1d, 0xd3f69e369d1ed54e),
    (0x3ab51d1981faa633, 0x7e1de67a98da0da3, 0x06f663af85128edd),
    (0xa83144897eb154be, 0x681b20d85612a37e, 0x5ca1c0335b82490d),
    (0xee8cec89a6d82bb6, 0x7443cef4ea5fbe56, 0x9d286fd839a80bba),
    (0x591b03cc91004a6f, 0xaa00600df2c6e861, 0xfb8fb179721ab693),
    (0xa1b0d724b19f9697, 0xb484292a9df72b30, 0x40dbc956d4e5230c),
    (0x112ca107431cd6c4, 0xc3ef54feeb040d4b, 0x5791bba77f7d8928),
    (0xf5b35d4fb7023e62, 0x53d5a0ff07d771d6, 0xd2978a3a578ced53),
    (0xf663bf89ab0d3ad7, 0x1274ca2601f27d69, 0xd894b85a4d006ad2),
    (0x417c697f886cc02c, 0x4cd064247c033916, 0x7f4f660aa00578b3),
    (0x2fb6eef448313ae4, 0xd72fc8215ffc26c3, 0x0c3f806f8c26c12f),
    (0x1e39e4593e71e7f8, 0xb8ea231206830f2d, 0xcec25ba44b4759a4),
    (0x66a0e8199b078c18, 0x8f265dd0174d8ffd, 0x591d186ea34bec00),
    (0xe6a780052c8fabf4, 0x3f3cbb3b8d8b383f, 0x6c3a58f611696c11),
    (0x8b7f307bad30cdd8, 0x53c5a5ab472a0120, 0x2eef529ff48f7cad),
    (0xbdbc03534000a8e6, 0xd8a3f669a2d2d4e9, 0x335d5da493a03639),
    (0xab499019c1bcce90, 0x557650d78d745ea0, 0xefa2972216599f4e),
    (0xcba6fc42c91a6889, 0xc61f1385643591ac, 0xc02ec4a3595305c8),
    (0x6cf2ef7e3c54a4c6, 0xff32cf805ab2764b, 0x408b0f9584624dcc),
    (0x142258463f5b7198, 0xec985cd6cf6e9be2, 0x8f53e153073ef587),
    (0xf543ccafc4e701cf, 0x0f22704f7564014d, 0x3caa2cc855febac1),
    (0x89dbb43c08ff6e13, 0x85a5ada0e107d987, 0x1be4981721ed6e9d),
    (0x0e1321a45c8137f1, 0x2c2e1f3a49e612b9, 0xa4bbc9fdfa89a438),
];
