/**
 * The shared parsers: parseUnsigned (tool options, environment knobs,
 * JSON integers) and the one JSON reader.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/env.hh"
#include "common/json.hh"

namespace slip
{
namespace
{

TEST(ParseUnsigned, AcceptsPlainDigitsWithinTheTargetType)
{
    uint64_t u64 = 0;
    EXPECT_TRUE(parseUnsigned("0", u64));
    EXPECT_EQ(u64, 0u);
    EXPECT_TRUE(parseUnsigned("18446744073709551615", u64));
    EXPECT_EQ(u64, UINT64_MAX);
    unsigned u32 = 0;
    EXPECT_TRUE(parseUnsigned("4294967295", u32));
    EXPECT_EQ(u32, 4294967295u);
    uint16_t port = 0;
    EXPECT_TRUE(parseUnsigned("65535", port));
    EXPECT_EQ(port, 65535u);
}

TEST(ParseUnsigned, RefusesSignsJunkAndValuesThatDoNotFit)
{
    uint64_t u64 = 7;
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "1.5",
                            "18446744073709551616"}) {
        EXPECT_FALSE(parseUnsigned(bad, u64)) << bad;
        EXPECT_EQ(u64, 7u) << bad; // untouched on failure
    }
    unsigned u32 = 7;
    EXPECT_FALSE(parseUnsigned("4294967296", u32));
    EXPECT_EQ(u32, 7u);
    uint16_t port = 7;
    EXPECT_FALSE(parseUnsigned("65536", port));
    EXPECT_EQ(port, 7u);
    EXPECT_FALSE(parseUnsigned(std::string("1\0" "2", 3), u64));
}

TEST(JsonReader, EveryAsciiByteSurvivesEscapeAndRead)
{
    std::string all;
    for (int c = 0x01; c <= 0x7f; ++c) {
        const std::string one(1, char(c));
        all += one;
        EXPECT_EQ(parseJson('"' + jsonEscape(one) + '"').str, one) << c;
    }
    const Json j = parseJson('"' + jsonEscape(all) + '"');
    EXPECT_EQ(j.kind, Json::Str);
    EXPECT_EQ(j.str, all);
}

TEST(JsonReader, OtherEscapesDecode)
{
    EXPECT_EQ(parseJson(R"("\/\b\f\u00e9\u20ac")").str,
              "/\b\f\xc3\xa9\xe2\x82\xac");
    EXPECT_THROW(parseJson(R"("\q")"), JsonError);
    EXPECT_THROW(parseJson("\"raw\nnewline\""), JsonError);
}

TEST(JsonReader, NumbersKeepTheirTextAndConvertByType)
{
    const Json j = parseJson("[18446744073709551615, -1, 1.5e3, 0]");
    ASSERT_EQ(j.arr.size(), 4u);
    uint64_t u64 = 0;
    EXPECT_TRUE(jsonNumber(j.arr[0], u64));
    EXPECT_EQ(u64, UINT64_MAX);
    unsigned u32 = 0;
    EXPECT_FALSE(jsonNumber(j.arr[0], u32));
    EXPECT_FALSE(jsonNumber(j.arr[1], u64));
    EXPECT_FALSE(jsonNumber(j.arr[2], u64));
    double d = 0;
    EXPECT_TRUE(jsonNumber(j.arr[2], d));
    EXPECT_EQ(d, 1500.0);
    EXPECT_EQ(j.arr[2].str, "1.5e3");
    EXPECT_FALSE(jsonNumber(parseJson("\"7\""), u64)); // a string is not
}

TEST(JsonReader, ValuesKnowWhereTheySit)
{
    const std::string text = "[ {\"a\": [1, 2]} , true, null ]";
    const Json j = parseJson(text);
    ASSERT_EQ(j.arr.size(), 3u);
    const Json &obj = j.arr[0];
    EXPECT_EQ(text.substr(obj.begin, obj.end - obj.begin),
              "{\"a\": [1, 2]}");
    ASSERT_NE(obj.get("a"), nullptr);
    EXPECT_EQ(obj.get("a")->arr.size(), 2u);
    EXPECT_EQ(obj.get("b"), nullptr);
    EXPECT_TRUE(j.arr[1].b);
    EXPECT_EQ(j.arr[2].kind, Json::Null);
}

TEST(JsonReader, CutOffDocumentSaysTruncated)
{
    const std::string doc =
        "{\"name\": \"a\\u0001b\", \"n\": [1, 2.5e-3, true, null], "
        "\"o\": {}}";
    ASSERT_NO_THROW(parseJson(doc));
    for (size_t cut = 0; cut < doc.size(); ++cut) {
        SCOPED_TRACE(doc.substr(0, cut));
        try {
            parseJson(doc.substr(0, cut));
            ADD_FAILURE() << "a cut-off document parsed";
        } catch (const JsonError &e) {
            EXPECT_NE(std::string(e.what()).find("truncated"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(JsonReader, MalformedDocumentsAreRefused)
{
    for (const char *bad : {"[1,]", "{\"a\" 1}", "[1] x", "tru", "-", "1.",
                            "{1: 2}", "<html>"})
        EXPECT_THROW(parseJson(bad), JsonError) << bad;
}

} // namespace
} // namespace slip
