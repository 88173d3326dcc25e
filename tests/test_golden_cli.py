"""Pinned stdout of the read-only subcommands on every corpus diagram.

The digests were recorded before the state-sum path was rebuilt around the
per-diagram quadrant table; any change to the text or json output of
``regions``, ``states``, ``nabla``, ``nabla --hat``, ``gradings`` or
``euler`` on the corpus shows up here.
"""

import hashlib

from tanglenabla import corpus
from tanglenabla.cli import main
from tanglenabla.verify import PROPERTIES

COMMANDS = ("regions", "states", "nabla", "nabla --hat", "gradings", "euler")

# (diagram, format, command) -> (exit code, sha256 of stdout)
GOLDEN = {
    ("clasp", "text", "regions"): (0, "de0f0e150c1241cc69f80eb42031aab3b9a0bf654b934881920b5c41e851dbbb"),
    ("clasp", "text", "states"): (0, "e0869e034300eb196ea366a598374f5e286d70fd1f825e0ad1ac02ac5e093d47"),
    ("clasp", "text", "nabla"): (0, "f6929e42bbaf783f4af90ece31079f054d8e28225290e2224afd3df48d60b879"),
    ("clasp", "text", "nabla --hat"): (0, "825e06d5e334f083ef057c9ad5cc34f90bade239b774b608e35dc056bcad2bfc"),
    ("clasp", "text", "gradings"): (0, "108394fc622aff8cb4bb3b05d5e9dab3c2b4f53a924a2e3c217856457d4e7aff"),
    ("clasp", "text", "euler"): (0, "fc5dad46d2de12b69c02a4963780e0a9ac1abe1c6109e0864a38cd96ca9b170e"),
    ("clasp", "json", "regions"): (0, "14a99815587a6e7a7ea3fc9fd19cd65294b7ceff8e39a55d7a063c520cb819ec"),
    ("clasp", "json", "states"): (0, "0650748b03acf40406988bf2d65d9fe14b4dd11a9b916b23bcc67665d3b0b89b"),
    ("clasp", "json", "nabla"): (0, "8741e00f42fdec40ac898131ae4cb71c9a62565c88a4bcbc2f31779258b98877"),
    ("clasp", "json", "nabla --hat"): (0, "909bc1cbd4a3e5af6c5e933e09401ac37ea97d1bbfe38a8dee3dcb495aedd190"),
    ("clasp", "json", "gradings"): (0, "7fc4abd1467d9d7d5780bc82aaf8db7cbb66da24971038531aac21278a14ff83"),
    ("clasp", "json", "euler"): (0, "fb1793f43cc724fc7ece05648df80b12916fbc1c66fe06411ccf2b980ad7e0a7"),
    ("clasp_neg", "text", "regions"): (0, "de0f0e150c1241cc69f80eb42031aab3b9a0bf654b934881920b5c41e851dbbb"),
    ("clasp_neg", "text", "states"): (0, "c2fad878bbc9d2856f8251ab63fdb6bb08c7315d3c2d8730d71249f7768fcb97"),
    ("clasp_neg", "text", "nabla"): (0, "11ca718456d59e2dc082822a323bce5ba3e15943dc474082ea37e6e353dd9bd6"),
    ("clasp_neg", "text", "nabla --hat"): (0, "0fff80a8ca31883e8420e51ca51ad859ea2270f6937de01716b7f9cac0cc82de"),
    ("clasp_neg", "text", "gradings"): (0, "7b8bbbed53109d842998a1538d74e12fefdc7fabe95360e54b8804836e53ea4e"),
    ("clasp_neg", "text", "euler"): (0, "2ffa00ea383a7689095596dfa2259f5eca717c68ab3bcbc541717aa7f91d966b"),
    ("clasp_neg", "json", "regions"): (0, "b0be484a191cb9564c9469b500a13248449d4f242451c0a0c3b40f87cf135731"),
    ("clasp_neg", "json", "states"): (0, "d79b60f54002a4a60e4936be6096f5c484a8177559152d3774bfe43e58e1a319"),
    ("clasp_neg", "json", "nabla"): (0, "1105c6d67ae3a42715e54ead31898de8157297a21de965d3ebff62581e7dfce1"),
    ("clasp_neg", "json", "nabla --hat"): (0, "8ec3cc016ccd7bc71227a03c27f89eb95d132b5eb42a1a22f25cfe56cf402bce"),
    ("clasp_neg", "json", "gradings"): (0, "176708b91706aaba5d4253ba6819113b1d9381039fd25217e4820d1dd9d4b727"),
    ("clasp_neg", "json", "euler"): (0, "e50c11485cb1873e0fcb9e9325d0f0998a060b5685d4d47177a84bf19dd93921"),
    ("crossing_neg", "text", "regions"): (0, "d66cce3f5d10823770327f46c2b99e27831737fe97b8be4f212e762bff39e057"),
    ("crossing_neg", "text", "states"): (0, "5bdd7c7201b1948bf06c9271d2383def7f1a69d80c2d59c5f570132c92bc70e9"),
    ("crossing_neg", "text", "nabla"): (0, "edfe826f91222771b171f109c4efc84a732631447a033f02566bad02433d31a1"),
    ("crossing_neg", "text", "nabla --hat"): (0, "42983d7686f8dac425c0cec6642f792a37dc6dc6189c6a3b328317b5e90dfe88"),
    ("crossing_neg", "text", "gradings"): (0, "34668d0b98424103e3013cc0f8bbbf2d7c25cd4e8a3c911a1634df32fe3f5c1d"),
    ("crossing_neg", "text", "euler"): (0, "e2da675a137d03f82b3c9ee270840c5457f4dea32d046f484034ad182c6779df"),
    ("crossing_neg", "json", "regions"): (0, "a121b4cfbb914292ae4739f04c95be7ec98c7c34b7c1a2a576574dab8c5dccd2"),
    ("crossing_neg", "json", "states"): (0, "b2268c9ea011298b4a210330492b709029818bc953c5b39549ef0b013d500c9c"),
    ("crossing_neg", "json", "nabla"): (0, "d4d927b2dfe558dc5376f9f44b5c3bd590c081ba19f687bccdb70e69b69c4d99"),
    ("crossing_neg", "json", "nabla --hat"): (0, "0829ae496a33cec8e982c3d89ab8944d95da94f37221a269f57622aab71ca517"),
    ("crossing_neg", "json", "gradings"): (0, "40c2aa55ac3b5c314582e513649c5a6597822f7be02a75b75f7bed6f884ddc6c"),
    ("crossing_neg", "json", "euler"): (0, "c02ba70e667b1e65b0b95bb3c41becf801a5a8975f2179f51ba0e91f02d20a21"),
    ("crossing_pos", "text", "regions"): (0, "d66cce3f5d10823770327f46c2b99e27831737fe97b8be4f212e762bff39e057"),
    ("crossing_pos", "text", "states"): (0, "c6f52f82889b3102a5798a950eee89b629ec2be51685d7bc3a3cab4ea886ef10"),
    ("crossing_pos", "text", "nabla"): (0, "5506bc7ae5ed559057350f78df1ded16021ae6d896009ba93c26c8bdaf04f69f"),
    ("crossing_pos", "text", "nabla --hat"): (0, "0009941dcc2a70e4f5e8388dd993d47728890c36f27ca52ad92de2ba8cd590a3"),
    ("crossing_pos", "text", "gradings"): (0, "645dd6268ca05268f847e1b177ecc776c1914948b73cbb9eae92244233b8467e"),
    ("crossing_pos", "text", "euler"): (0, "94d6a503814fe6fd7bb2a900e019a95d862a324d63a099b71a6ecd01188a3b7d"),
    ("crossing_pos", "json", "regions"): (0, "7555440aa08828be8f083d2056fb6a3b8530d51680c04fb9009f6e5f2350f8a8"),
    ("crossing_pos", "json", "states"): (0, "828485fa17d8cc99ea692a691dc626871698d90afc3a420b7d67d3cef59dc56e"),
    ("crossing_pos", "json", "nabla"): (0, "986157201ce43ac86e24bac607dfa59beb2bb78d15b215c0984a741e651e32bb"),
    ("crossing_pos", "json", "nabla --hat"): (0, "bb152a7e99ac0fd2c1e74ee88ab7724020b20b044c9faf230f330882bd8f9409"),
    ("crossing_pos", "json", "gradings"): (0, "e04c08cd75241137f954f3cbf4b3306dc2e05a943072ee27446ac15c7bf8aee8"),
    ("crossing_pos", "json", "euler"): (0, "ee35850223a7d42ee17f77ab7940c9312c3268220fca31c5e8393c79c5075b16"),
    ("mutorient", "text", "regions"): (0, "871b7779ba0ced8e32a864a5def3fd2d35acdb153668874682d6485e8d1ac794"),
    ("mutorient", "text", "states"): (0, "e677f241ac7a23496c55c6e4a294e885dd02d4df2c678cca8f732cf6bd0ef38b"),
    ("mutorient", "text", "nabla"): (0, "86d977f2a86dff585e94dfd76b9c48575f227cd0b711fd77d1ad8aa696cfbe9e"),
    ("mutorient", "text", "nabla --hat"): (0, "bd22b3582a2580245756f98e94644a53133e04ea1727608f06e661f4893694f9"),
    ("mutorient", "text", "gradings"): (0, "c638cffcf5c3568e4e82dea4022bf61d054854182103f3b8482376405f75ac4e"),
    ("mutorient", "text", "euler"): (0, "c07ed5afb9708164b3f986235263114d2a616dd31a0746dd929cfa48cd87c1b1"),
    ("mutorient", "json", "regions"): (0, "2d34740be64aa11d47a65231a77d600b838d3679a2eaa3edb33686c09adb1fba"),
    ("mutorient", "json", "states"): (0, "ad8c516c55a6ed1e68471c839b8a5630749dc9a4f3abfb3bfaac7e7e08f9eadd"),
    ("mutorient", "json", "nabla"): (0, "f5dc176ee3981ad25efa1f33b200bce10309940e656a2402d23e08dc605d640c"),
    ("mutorient", "json", "nabla --hat"): (0, "7173d9703c06a61ff735f96574889b4839854cca435978e353cdf9cbb8b16b64"),
    ("mutorient", "json", "gradings"): (0, "ff6fa1d22fc06060b02b69839a91d285d89b6307e5e95ee120b773ddfb179674"),
    ("mutorient", "json", "euler"): (0, "03b308b41e4e712b3c32db188a4a3a18ac381d0ca8134a8745d91e2ebdbae842"),
    ("pretzel_2m3", "text", "regions"): (0, "e69b483904db6346de43748da5c320593b51aebd0322ff9c4ab113cdb8f87432"),
    ("pretzel_2m3", "text", "states"): (0, "de7fb8c6cd4c25a8ce4b231cd027dd0acd8e2af67f21fa7fca51020bfd061b26"),
    ("pretzel_2m3", "text", "nabla"): (0, "c6afe808cd2caf67e6b90cbacae1fe8aa789a1931add4cdeda066cf48275d7ae"),
    ("pretzel_2m3", "text", "nabla --hat"): (0, "6fd861d8a111708ce75ca6ecdbf8b90b333f6e1463a407fe08ddee961f1732c8"),
    ("pretzel_2m3", "text", "gradings"): (0, "e7dc1cf5a128d60f818f0937858aac3f52563f07d12fd084cd858cdd032b0b85"),
    ("pretzel_2m3", "text", "euler"): (0, "842e80957ff8448293858296acca97e3f338ff0b53be74de3089fdbc6f592bd7"),
    ("pretzel_2m3", "json", "regions"): (0, "82a9dfd87174b63828e0576160e7baa27e425f03a2f008f282429429632141dd"),
    ("pretzel_2m3", "json", "states"): (0, "6d6dd7b9241fee9846d081243d4a7f94a2796cf223a1e0c721867f08bfabe128"),
    ("pretzel_2m3", "json", "nabla"): (0, "46ce7bf81809f3b014f26500c2349cb4750333cace647efa01d3736b67682a1f"),
    ("pretzel_2m3", "json", "nabla --hat"): (0, "29599cf8ae9a9de0119340822c1b76d9da57bee2eee5fe8518d2ea76782b3c58"),
    ("pretzel_2m3", "json", "gradings"): (0, "09e195312809dd27275da19604a185278214582ca745f018541fafe6cdc67c3b"),
    ("pretzel_2m3", "json", "euler"): (0, "4ef007a0fbe6a2be8356f3ff693a6b1a24e1cf991c5e75872efe53f7205a1bfb"),
    ("trefoil", "text", "regions"): (0, "ac8c6a292ffbb5650f7b57b7ce3b9fc700d776cf06579702c5e98aa23805a25d"),
    ("trefoil", "text", "states"): (0, "1a15fc077e2e968aca3f250da152af0dfd33de23dd0df91f6ed811bd54d9520e"),
    ("trefoil", "text", "nabla"): (0, "555d44448f71357a529072f2e4bd2670b2467dee9a5a9f8dec472515b9e27abb"),
    ("trefoil", "text", "nabla --hat"): (0, "7c5699fe100ce39a9a25500f542cc3a81de150de399af0d2c6a89dbc22de3aea"),
    ("trefoil", "text", "gradings"): (0, "9bf87b16eed84474ebc64dda3e1a788b711f39bdb30a79acb9b5f3bd633b44db"),
    ("trefoil", "text", "euler"): (0, "555d44448f71357a529072f2e4bd2670b2467dee9a5a9f8dec472515b9e27abb"),
    ("trefoil", "json", "regions"): (0, "4d0e9e91124df5c4b3737ac350e8e6ccf215d5ff559684a1c4dc13aa10b8eaf1"),
    ("trefoil", "json", "states"): (0, "ee686c74189c7bafe5c07690b66d96138bdb5bdbc2bcdcc6858693d5bee43cf2"),
    ("trefoil", "json", "nabla"): (0, "614f208ac9d077e646d9f9d2dc8b7ff958131b3bb8e99785040b03a80f299365"),
    ("trefoil", "json", "nabla --hat"): (0, "38387c1e1fedc01e9ac7f473ff2e258845125c1b28c8e2da4fd295ccc3af6720"),
    ("trefoil", "json", "gradings"): (0, "7bb1d7a0791206f863fa9cad5e8bc4b340b465d818b76e9a16199294c1123570"),
    ("trefoil", "json", "euler"): (0, "ad2524fbc8aa4fde337985508d1abb5e795aa1b29ee6d5e4213419be0f81290b"),
}


def test_golden_table_covers_corpus():
    assert {(n, f, c) for n in corpus.names() for f in ("text", "json")
            for c in COMMANDS} == set(GOLDEN)


def test_corpus_cli_digests(capsys):
    for (name, fmt, cmd), (code, digest) in GOLDEN.items():
        sub, *opts = cmd.split()
        got = main(["--format", fmt, sub, f"corpus:{name}", *opts])
        out, _ = capsys.readouterr()
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), \
            (name, fmt, cmd)


# (property, seed) -> (exit code, sha256 of stdout) of
# ``--format json check <property> --seed <seed> --cases 6``, recorded before
# the transforms were rebuilt around one construction per result and the
# glueing check became one pass over site pairs.
CHECK_GOLDEN = {
    ("euler_char", 0): (0, "621f9f714afbbbccc09d1eface13e2a98c0304d74ec3ac90a3a85037545e9ac6"),
    ("euler_char", 1): (0, "5eaa033a24b1b23ce4f2b4fd98af55976f524c485a2d7acfabd93e1268d85233"),
    ("fourended_symmetry", 0): (0, "f60191e40415fdd40ba2b0ee455cd077feb6d4b1908358a291e4517d705b7ef5"),
    ("fourended_symmetry", 1): (0, "a7023ad98ce40de15a62907615ebfdea3968607f08f5697cdd61940517d2d73a"),
    ("glueing", 0): (0, "ee5e9c948a4bbe24df15295b46d0ea97b835bbb806dad368788f31673da64065"),
    ("glueing", 1): (0, "0ab071b81ab6cc3830f17c24fa2e2d47d67cf09dfb0fb4cd177fbf9cf0c73d54"),
    ("knot_pm_one", 0): (0, "78edff338b6f6d3fcad706e469fb7534da973f7963b78b22660cf876ed2d89ff"),
    ("knot_pm_one", 1): (0, "95ffda1eb36f7b58221d652b41da9fcf9849f2bf0c2d048bf814249cfeb39b03"),
    ("mirror", 0): (0, "808cd5ad1b823951226df1f7fec637077764ef2725c52e89d5f1e1b7169a28e0"),
    ("mirror", 1): (0, "b7dd575792aa68fd16339469c262d9365976dd33e1a65613087bb236679e101f"),
    ("mutation", 0): (0, "cc83648955871ad9b9d8a9d51739200b3e935f77bc6e26c2683bada50ad35144"),
    ("mutation", 1): (0, "eb4f105ea53715e98168453aec06ddcd33d11122057362e507b6fdf8affa561d"),
    ("mutorient_counterexample", 0): (0, "219ceaf1a66d54b859b821d66d90acb006d3db371c19ff5cf9b2fa8ae9d28290"),
    ("mutorient_counterexample", 1): (0, "40982a0573780d7d58bffbe70ad231f5e8e0423dec8aca7d85fb8a6f3972b066"),
    ("parity", 0): (0, "642bb41c3823515ed471a36d03798d8d5e9f3596c8f14eccb7ea7ca921109ce7"),
    ("parity", 1): (0, "699702205c0ec33ef299c679e8fc7f14651884b6bd8e74f73639cdd3cba469af"),
    ("reversal", 0): (0, "e671b7be44ba5d2db50f87e8535c5605e496b391da9003f4d68ec87ef03714ed"),
    ("reversal", 1): (0, "85d561fb2fc68703424ee5779438cd8b485dc110009d079d67556ee71797f63e"),
    ("rm_invariance", 0): (0, "9591538a9f8baa836c85df7de65579ea3d85853f6b76083ea1b2c985409b4f7f"),
    ("rm_invariance", 1): (0, "6ddadf7fe111d1153363cafbdfcc99d554a2f6f5a50e75a69df2522e5603e04f"),
    ("set_pm_one", 0): (0, "3fc44fa05b1038aa9f59b1ddfbb07288d02c3e5cf380004cc88330eece6b7005"),
    ("set_pm_one", 1): (0, "fc1071466ef209fe6318291bb45ce9f6a2c21d1c9aaba2115323fae13c94664e"),
    ("skein", 0): (0, "edf6c04aef4333d31f97d682c7925bd0b6b7b77ac5fec7a704365b04125f7951"),
    ("skein", 1): (0, "dee3d3d0b065c938479696192d9e2d75f9e61fb512bbfc31a1d8719bcecf47a0"),
}


def test_check_json_digests(capsys):
    assert {prop for prop, _ in CHECK_GOLDEN} == set(PROPERTIES)
    for (prop, seed), (code, digest) in CHECK_GOLDEN.items():
        got = main(["--format", "json", "check", prop, "--seed", str(seed), "--cases", "6"])
        out, _ = capsys.readouterr()
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), (prop, seed)


# diagrams the corpus lacks, written out: a split one (no state, so
# "states": [] and the zero polynomial, "terms": []), a 2-ended one with a
# closed component whose Conway quotient is exact (``seeded_diagrams(5, 40,
# 7)[30]``), and the trefoil under a name that JSON has to escape
FILES = {
    "split": "tangle split\nends 2\nboundary a e1 b e2\n"
             "crossing x1 + under e1 e3 over e3 e2\ncolour e1 t\ncircle u\n",
    "closed2": ("tangle piece0_rev+piece1_rev+piece2_rev+piece3_rev+piece4+piece5_rev\n"
                "ends 2\nboundary a g_p4_1 b g_p5_3\n"
                "crossing x1 + under g_p2_2 g_p3_3 over g_p3_1 g_p1_0\n"
                "crossing x2 - under g_p1_0 g_p1_1 over g_p1_3 g_p1_2\n"
                "crossing x3 - under g_p2_1 g_p1_3 over g_p1_1 g_p2_2\n"
                "crossing x4 + under g_p3_0 g_p3_1 over g_p3_3 g_p2_1\n"
                "crossing x5 + under g_p1_2 g_p4_1 over g_p4_2 g_p4_3\n"
                "crossing x6 + under g_p4_3 g_p4_2 over g_p5_3 g_p3_0\n"
                "colour g_p1_0 t1\ncolour g_p4_2 t2\n"),
    "cafe": corpus.source("trefoil").replace("tangle trefoil", 'tangle café"q\\z'),
}

# "<format> <argv>" -> (exit code, sha256 of stdout), with a FILES key in
# argv standing for a file of that text; recorded while every JSON output
# still went through json.dumps(indent=2, sort_keys=True)
MORE_GOLDEN = {
    "text conway corpus:trefoil": (0, "e33e31075c4c8282eca96522dab5d1c1cb68d53382492567df439c2fa772f0a5"),
    "json conway corpus:trefoil": (0, "c8ea0ab09e59d74184a60998217341c586d41c72f739cdef9c4c71939a10e19c"),
    "text conway closed2": (0, "9cc73a6d59983c2046e0214f60d564057b773ca009ff0f18b6287a2e93a1d4d8"),
    "json conway closed2": (0, "9b25fb0e598e31e749e34b6280ea51631c17f2cb70a81854b29c70bf06ba1080"),
    "json transform mirror corpus:clasp": (0, "54de12f93bc277c3e9d1dcb02e5716de3061199b793b6993786009d6e1fe785a"),
    "json nabla corpus:pretzel_2m3 --site b": (0, "6869bf5738a8fa4041ad87a8ee9ab14282c22ee86651d949a4f1d0e81b4eea9a"),
    "json nabla corpus:pretzel_2m3 --site b --hat": (0, "2b346a2821f671f61a917d695b99ae1cb4b8631ff4f96586c21885954eab8419"),
    "json euler corpus:pretzel_2m3 --site b": (0, "0c0d73244442955a849efccf548d266e91f9d8215eb47ccc8ba4acaa16eda203"),
    "json states split": (0, "fdbbbb216f76fca832c71fa2c33c2f5640bca521dbcfe2c4a5fa469624df5090"),
    "json nabla split": (0, "fd22323419a71a9fda53d1d9f0e451891ce5617320187f06bd5fdbbae1609083"),
    "json nabla split --hat": (0, "bc6e21629b9575da407e6e8d5d96af5e619cff647f54a080e28dff0ab545462e"),
    "json conway split": (0, "b26a5ff258c10dc89ab0a3331fec00533f3299d0bf9d8581228d47b696f47958"),
    "json nabla closed2": (0, "d670b563923a90f03141d04d39636779be3723f959a33a1c2fd016a259098b8a"),
    "json euler closed2": (0, "37c7cdc7dc924483e9ba6767175dea80d10ea3e06d0d08ab3326102463f4b00f"),
    "json regions cafe": (0, "d290cde021198615cd2ebbc70a8f3a8a99be3a78a250583b4b6a806aa5a49778"),
    "json states cafe": (0, "76325ee8bfd89f1fd4e1e8dfdfd527629c5bf0a5995b8af445c90724ccbe2797"),
    "json nabla cafe": (0, "bc59af66bf21724e6c94efeb3e68d4bb0a23e0f5d699b2127903acb477810cda"),
    "json conway cafe": (0, "b87621d846c27a949c95dd6622d90dfcfd3ed53c4a8ea201f9067b1936b5fae6"),
    "json gradings cafe": (0, "a50eedbfa68f87aae3ce2e92886dd7593fe2e914fe0a266d77105dee5ca16498"),
    "json euler cafe": (0, "762df66ad2952de1d9e291db9e3796a11eee7bed7d3a312fee0aed6d2b08d1cb"),
    "json transform mirror cafe": (0, "1ef9b19a9aebeb8ca3709d506afd7b3c2677c45d342ba5a8039a3fc618b3a539"),
}


def test_more_cli_digests(tmp_path, capsys):
    for key, text in FILES.items():
        (tmp_path / f"{key}.tgl").write_text(text, encoding="utf-8")
    for cmd, (code, digest) in MORE_GOLDEN.items():
        fmt, *argv = cmd.split()
        argv = [str(tmp_path / f"{a}.tgl") if a in FILES else a for a in argv]
        got = main(["--format", fmt, *argv])
        out, _ = capsys.readouterr()
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), cmd
